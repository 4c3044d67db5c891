package box

import "testing"

func TestSet(t *testing.T) {
	b := New("x")
	b.Set(3)
	if b.N() != 3 {
		t.Fatal("Set lost the count")
	}
}
