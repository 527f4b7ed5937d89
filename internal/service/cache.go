package service

import "container/list"

// resultCache is a bounded LRU over completed job results, keyed by job ID
// (the content address derived from circuit hash + analysis identity, see
// jobID). Values are the exact encoded response bytes, so a hit is served
// byte-identical to the cold run that produced it. Not safe for concurrent
// use — the Manager guards it with its own mutex.
//
// Two bounds apply: at most cap entries, and at most maxBytes of result
// bytes. Documents range from kilobytes to megabytes, so the entry cap
// alone does not bound memory. The newest entry is always kept, even when
// it alone exceeds maxBytes.
type resultCache struct {
	cap      int
	maxBytes int64
	bytes    int64      // summed len(result) of the cached entries
	ll       *list.List // front = most recently used
	items    map[string]*list.Element
}

// cacheEntry is what completion leaves behind once the Job bookkeeping is
// gone: enough to answer status and result queries forever after.
type cacheEntry struct {
	id     string
	info   JobInfo
	result []byte
	// seq is the last event sequence number the job published (events.go):
	// the snapshot replayed to late event subscribers carries it, so a
	// resume cursor stays monotone across completion. Zero for entries
	// loaded from the disk tier — their event history is gone.
	seq int64
}

func newResultCache(capacity int, maxBytes int64) *resultCache {
	return &resultCache{
		cap:      capacity,
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element, capacity),
	}
}

// get returns the entry for id, refreshing its recency.
func (c *resultCache) get(id string) (*cacheEntry, bool) {
	el, ok := c.items[id]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry), true
}

// add inserts (or refreshes) an entry, evicting least recently used ones
// while either bound is exceeded.
func (c *resultCache) add(e *cacheEntry) {
	if el, ok := c.items[e.id]; ok {
		c.bytes -= int64(len(el.Value.(*cacheEntry).result))
		el.Value = e
		c.ll.MoveToFront(el)
	} else {
		c.items[e.id] = c.ll.PushFront(e)
	}
	c.bytes += int64(len(e.result))
	for c.ll.Len() > 1 && (c.ll.Len() > c.cap || c.bytes > c.maxBytes) {
		last := c.ll.Remove(c.ll.Back()).(*cacheEntry)
		c.bytes -= int64(len(last.result))
		delete(c.items, last.id)
	}
}

// len returns the number of cached results.
func (c *resultCache) len() int { return c.ll.Len() }
