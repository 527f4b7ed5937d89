package service

import "testing"

func entry(id string) *cacheEntry {
	return &cacheEntry{id: id, info: JobInfo{ID: id, State: JobDone}, result: []byte(id)}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2, DefaultCacheBytes)
	c.add(entry("a"))
	c.add(entry("b"))
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}

	// Touch a so b becomes the eviction victim.
	if _, ok := c.get("a"); !ok {
		t.Fatal("a missing")
	}
	c.add(entry("c"))
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted (least recently used)")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Fatal("c should be present")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d after eviction", c.len())
	}
}

func TestResultCacheRefreshExisting(t *testing.T) {
	c := newResultCache(2, DefaultCacheBytes)
	c.add(entry("a"))
	c.add(entry("b"))
	// Re-adding an existing ID refreshes in place: no growth, new value.
	fresh := entry("a")
	fresh.result = []byte("fresh")
	c.add(fresh)
	if c.len() != 2 {
		t.Fatalf("len = %d after refresh", c.len())
	}
	got, ok := c.get("a")
	if !ok || string(got.result) != "fresh" {
		t.Fatalf("refresh lost the new value: %+v", got)
	}
	// And a was moved to the front by the refresh.
	c.add(entry("c"))
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted")
	}
}

func sized(id string, n int) *cacheEntry {
	e := entry(id)
	e.result = make([]byte, n)
	return e
}

func TestResultCacheEvictsByBytes(t *testing.T) {
	c := newResultCache(10, 100)
	c.add(sized("a", 40))
	c.add(sized("b", 40))
	if c.len() != 2 || c.bytes != 80 {
		t.Fatalf("len = %d, bytes = %d", c.len(), c.bytes)
	}
	// 120 bytes exceed the bound although the entry cap is far away: the
	// least recently used entry goes.
	c.add(sized("c", 40))
	if _, ok := c.get("a"); ok {
		t.Fatal("a should have been evicted by the byte bound")
	}
	if c.len() != 2 || c.bytes != 80 {
		t.Fatalf("len = %d, bytes = %d after eviction", c.len(), c.bytes)
	}
}

func TestResultCacheKeepsOversizeNewest(t *testing.T) {
	c := newResultCache(10, 100)
	c.add(sized("a", 10))
	c.add(sized("big", 500))
	if _, ok := c.get("big"); !ok {
		t.Fatal("the newest entry must stay even when it alone exceeds the bound")
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("a should have been evicted to make room")
	}
	if c.len() != 1 || c.bytes != 500 {
		t.Fatalf("len = %d, bytes = %d", c.len(), c.bytes)
	}
	// The next entry displaces the oversize one.
	c.add(sized("b", 10))
	if _, ok := c.get("big"); ok {
		t.Fatal("oversize entry should go once a newer one arrives")
	}
	if c.len() != 1 || c.bytes != 10 {
		t.Fatalf("len = %d, bytes = %d", c.len(), c.bytes)
	}
}

func TestResultCacheReplaceAccounting(t *testing.T) {
	c := newResultCache(10, 100)
	c.add(sized("a", 30))
	c.add(sized("b", 30))
	// Replacing a in place swaps its bytes: 30 + 30 → 30 + 60.
	c.add(sized("a", 60))
	if c.len() != 2 || c.bytes != 90 {
		t.Fatalf("len = %d, bytes = %d after growing replace", c.len(), c.bytes)
	}
	// Shrinking it frees its bytes again.
	c.add(sized("a", 5))
	if c.len() != 2 || c.bytes != 35 {
		t.Fatalf("len = %d, bytes = %d after shrinking replace", c.len(), c.bytes)
	}
	// A replace that crosses the bound evicts the other entry, not itself.
	c.add(sized("a", 80))
	if _, ok := c.get("b"); ok {
		t.Fatal("b should have been evicted by the grown replacement")
	}
	if got, ok := c.get("a"); !ok || len(got.result) != 80 || c.bytes != 80 {
		t.Fatalf("replacement lost or miscounted: ok=%v bytes=%d", ok, c.bytes)
	}
}
