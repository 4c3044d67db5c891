package cachesim

import "testing"

func TestCoreGetPutValues(t *testing.T) {
	c := NewCore[string, int](100)
	if _, ok := c.Get("a"); ok {
		t.Fatal("empty cache must miss")
	}
	if ev, stored := c.Put("a", 7, 40); ev != 0 || !stored {
		t.Fatalf("put: evicted=%d stored=%v", ev, stored)
	}
	if v, ok := c.Get("a"); !ok || v != 7 {
		t.Fatalf("get a = %v, %v", v, ok)
	}
	if c.Used() != 40 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
}

func TestCoreUpdateAdjustsSizeAndValue(t *testing.T) {
	c := NewCore[string, int](100)
	c.Put("a", 1, 40)
	c.Put("a", 2, 60)
	if v, _ := c.Get("a"); v != 2 {
		t.Fatalf("updated value %v", v)
	}
	if c.Used() != 60 || c.Len() != 1 {
		t.Fatalf("used=%d len=%d after size update", c.Used(), c.Len())
	}
	// Shrinking updates must free budget.
	c.Put("a", 3, 10)
	if c.Used() != 10 {
		t.Fatalf("used=%d after shrink", c.Used())
	}
}

func TestCoreEvictsLRUOnPut(t *testing.T) {
	c := NewCore[int, struct{}](100)
	c.Put(1, struct{}{}, 40)
	c.Put(2, struct{}{}, 40)
	c.Get(1) // 1 most recent
	ev, stored := c.Put(3, struct{}{}, 40)
	if ev != 1 || !stored {
		t.Fatalf("evicted=%d stored=%v", ev, stored)
	}
	if _, ok := c.Get(2); ok {
		t.Fatal("2 must have been the victim")
	}
	if _, ok := c.Get(1); !ok {
		t.Fatal("1 must survive")
	}
}

func TestCoreOversizedPutRemovesStaleEntry(t *testing.T) {
	c := NewCore[int, int](50)
	c.Put(1, 1, 40)
	if ev, stored := c.Put(1, 2, 60); ev != 0 || stored {
		t.Fatalf("oversized update: evicted=%d stored=%v", ev, stored)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("oversized update must drop the stale entry")
	}
	if c.Used() != 0 || c.Len() != 0 {
		t.Fatalf("used=%d len=%d", c.Used(), c.Len())
	}
}
