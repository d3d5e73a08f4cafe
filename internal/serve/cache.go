package serve

import (
	"container/list"

	"tdmd"
)

// planCache is an LRU from problem fingerprint to solved Result. It
// has no lock of its own: every method runs with Engine.mu held.
// Only complete, uninterrupted solves are stored (the Engine
// enforces that), so a hit replays exactly what a fresh solve of the
// identical submission would compute. Entries hold a cloned Plan and
// are treated as immutable by every reader.
type planCache struct {
	cap     int
	entries map[Fingerprint]*list.Element
	order   *list.List // front = most recently used
}

type cacheEntry struct {
	fp  Fingerprint
	res tdmd.Result
}

func newPlanCache(capacity int) *planCache {
	return &planCache{
		cap:     capacity,
		entries: make(map[Fingerprint]*list.Element, capacity),
		order:   list.New(),
	}
}

// get returns the cached result and refreshes its recency.
func (c *planCache) get(fp Fingerprint) (tdmd.Result, bool) {
	el, ok := c.entries[fp]
	if !ok {
		return tdmd.Result{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// put stores a result, evicting from the LRU tail when full. The plan
// is cloned on the way in so later solver-side reuse of the original
// cannot reach into the cache.
func (c *planCache) put(fp Fingerprint, res tdmd.Result) {
	if c.cap <= 0 {
		return
	}
	res.Plan = res.Plan.Clone()
	if el, ok := c.entries[fp]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	for c.order.Len() >= c.cap {
		tail := c.order.Back()
		c.order.Remove(tail)
		delete(c.entries, tail.Value.(*cacheEntry).fp)
		cacheEvictionsTotal.Inc()
	}
	c.entries[fp] = c.order.PushFront(&cacheEntry{fp: fp, res: res})
	cacheEntries.Set(int64(c.order.Len()))
}

// len reports the live entry count.
func (c *planCache) len() int {
	return c.order.Len()
}
