package comm

import "testing"

func TestDefaultComputeModelRates(t *testing.T) {
	cm := DefaultComputeModel()
	if cm.AggElemsPerSec <= 0 || cm.MACsPerSec <= 0 {
		t.Fatal("default rates must be positive")
	}
	if cm.AggSeconds(0) != 0 || cm.MLPSeconds(0) != 0 {
		t.Fatal("zero work must cost zero time")
	}
	if cm.AggSeconds(2e9) <= cm.AggSeconds(1e9) {
		t.Fatal("more work must cost more time")
	}
}

func TestComputeModelLinear(t *testing.T) {
	cm := ComputeModel{AggElemsPerSec: 1e9, MACsPerSec: 1e10}
	if got := cm.AggSeconds(1e9); got != 1 {
		t.Fatalf("AggSeconds(1e9) = %v, want 1", got)
	}
	if got := cm.MLPSeconds(1e10); got != 1 {
		t.Fatalf("MLPSeconds(1e10) = %v, want 1", got)
	}
}
