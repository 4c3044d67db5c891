package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func TestNewZeroed(t *testing.T) {
	m := New(3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("bad shape: %dx%d len=%d", m.Rows, m.Cols, len(m.Data))
	}
	for i, v := range m.Data {
		if v != 0 {
			t.Fatalf("element %d not zero: %v", i, v)
		}
	}
}

func TestFromSliceNoCopy(t *testing.T) {
	data := []float32{1, 2, 3, 4}
	m := FromSlice(2, 2, data)
	data[0] = 42
	if m.At(0, 0) != 42 {
		t.Fatal("FromSlice must share storage")
	}
}

func TestFromSlicePanicsOnBadLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	FromSlice(2, 3, []float32{1, 2})
}

func TestRowAliasesStorage(t *testing.T) {
	m := New(2, 3)
	m.Row(1)[2] = 7
	if m.At(1, 2) != 7 {
		t.Fatal("Row must alias storage")
	}
}

func TestCloneIndependent(t *testing.T) {
	m := New(2, 2)
	m.Row(0)[0] = 5
	c := m.Clone()
	c.Row(0)[0] = 9
	if m.At(0, 0) != 5 {
		t.Fatal("Clone must not share storage")
	}
}

func TestAddSubScale(t *testing.T) {
	a := FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := FromSlice(2, 2, []float32{10, 20, 30, 40})
	a.Add(b)
	want := []float32{11, 22, 33, 44}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("Add: got %v want %v", a.Data, want)
		}
	}
	a.AddScaled(b, -1)
	for i, w := range []float32{1, 2, 3, 4} {
		if a.Data[i] != w {
			t.Fatalf("AddScaled(-1): element %d = %v want %v", i, a.Data[i], w)
		}
	}
	a.Scale(2)
	if a.At(1, 1) != 8 {
		t.Fatalf("Scale: got %v", a.At(1, 1))
	}
}

func TestAddScaled(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 1, 1})
	b := FromSlice(1, 3, []float32{2, 4, 6})
	a.AddScaled(b, 0.5)
	want := []float32{2, 3, 4}
	for i, w := range want {
		if a.Data[i] != w {
			t.Fatalf("AddScaled: got %v want %v", a.Data, want)
		}
	}
}

func TestShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2, 2).Add(New(2, 3))
}

func TestScaleRows(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	m.ScaleRows([]float32{10, 100})
	want := []float32{10, 20, 300, 400}
	for i, w := range want {
		if m.Data[i] != w {
			t.Fatalf("ScaleRows: got %v want %v", m.Data, want)
		}
	}
}

func TestAddRowVector(t *testing.T) {
	m := New(2, 3)
	m.AddRowVector([]float32{1, 2, 3})
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != float32(j+1) {
				t.Fatalf("AddRowVector: (%d,%d)=%v", i, j, m.At(i, j))
			}
		}
	}
}

func TestColSums(t *testing.T) {
	m := FromSlice(3, 2, []float32{1, 10, 2, 20, 3, 30})
	out := make([]float32, 2)
	m.ColSums(out)
	if out[0] != 6 || out[1] != 60 {
		t.Fatalf("ColSums: got %v", out)
	}
}

func TestTranspose(t *testing.T) {
	m := FromSlice(2, 3, []float32{1, 2, 3, 4, 5, 6})
	tr := m.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("bad transpose shape %dx%d", tr.Rows, tr.Cols)
	}
	for i := 0; i < 2; i++ {
		for j := 0; j < 3; j++ {
			if m.At(i, j) != tr.At(j, i) {
				t.Fatalf("transpose mismatch at (%d,%d)", i, j)
			}
		}
	}
}

func TestArgmaxRows(t *testing.T) {
	m := FromSlice(3, 3, []float32{
		0, 1, 0,
		5, 2, 9,
		-1, -3, -2,
	})
	out := make([]int, 3)
	m.ArgmaxRows(out)
	want := []int{1, 2, 0}
	for i, w := range want {
		if out[i] != w {
			t.Fatalf("ArgmaxRows: got %v want %v", out, want)
		}
	}
}

func TestArgmaxRowsTieBreaksLow(t *testing.T) {
	m := FromSlice(1, 3, []float32{7, 7, 7})
	out := make([]int, 1)
	m.ArgmaxRows(out)
	if out[0] != 0 {
		t.Fatalf("tie should resolve to index 0, got %d", out[0])
	}
}

func TestNorm2(t *testing.T) {
	m := FromSlice(1, 2, []float32{3, 4})
	if math.Abs(m.Norm2()-5) > 1e-9 {
		t.Fatalf("Norm2: got %v", m.Norm2())
	}
}

func TestGlorotUniformWithinLimit(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := New(64, 32)
	GlorotUniform(m, rng)
	limit := math.Sqrt(6.0 / float64(64+32))
	for _, v := range m.Data {
		if math.Abs(float64(v)) > limit {
			t.Fatalf("value %v exceeds Glorot limit %v", v, limit)
		}
	}
	// Should not be all zeros.
	if m.Norm2() == 0 {
		t.Fatal("Glorot init produced all zeros")
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := FromSlice(1, 3, []float32{1, 2, 3})
	b := FromSlice(1, 3, []float32{1, 2.5, 2})
	if d := a.MaxAbsDiff(b); math.Abs(d-1) > 1e-9 {
		t.Fatalf("MaxAbsDiff: got %v want 1", d)
	}
}
