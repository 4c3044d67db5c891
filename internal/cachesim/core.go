package cachesim

import "container/list"

// Core is the reusable generic heart of the LRU: a fully associative
// least-recently-used cache with a byte-capacity budget, variable-size
// entries, and an optional value per key. The cache-behaviour simulator
// wraps it with struct{} values (only residency matters there); the online
// serving cache in internal/serve wraps it with real payloads behind shard
// locks. Core itself is not safe for concurrent use.
type Core[K comparable, V any] struct {
	capacity int
	used     int
	order    *list.List // front = most recent; values are *coreEntry[K, V]
	index    map[K]*list.Element
}

type coreEntry[K comparable, V any] struct {
	key  K
	val  V
	size int
}

// NewCore creates a cache holding up to capacityBytes of entries.
func NewCore[K comparable, V any](capacityBytes int) *Core[K, V] {
	return &Core[K, V]{
		capacity: capacityBytes,
		order:    list.New(),
		index:    make(map[K]*list.Element),
	}
}

// Get returns the value stored under key and promotes it to most recent.
func (c *Core[K, V]) Get(key K) (V, bool) {
	if el, ok := c.index[key]; ok {
		c.order.MoveToFront(el)
		return el.Value.(*coreEntry[K, V]).val, true
	}
	var zero V
	return zero, false
}

// Put inserts or updates key with the given value and size, evicting
// least-recently-used entries to fit, and reports how many entries were
// evicted and whether the entry is now resident. Entries larger than the
// whole budget are never resident: a Put of one removes any stale entry
// under the key and stores nothing.
func (c *Core[K, V]) Put(key K, val V, size int) (evicted int, stored bool) {
	if el, ok := c.index[key]; ok {
		ent := el.Value.(*coreEntry[K, V])
		if size > c.capacity {
			c.order.Remove(el)
			delete(c.index, key)
			c.used -= ent.size
			return 0, false
		}
		c.used += size - ent.size
		ent.val = val
		ent.size = size
		c.order.MoveToFront(el)
		return c.evictToFit(), true
	}
	if size > c.capacity {
		return 0, false
	}
	c.index[key] = c.order.PushFront(&coreEntry[K, V]{key: key, val: val, size: size})
	c.used += size
	return c.evictToFit(), true
}

// evictToFit removes LRU entries until used ≤ capacity. The entry just
// touched sits at the front and is never the victim (its size is already
// known to fit the whole budget).
func (c *Core[K, V]) evictToFit() int {
	evicted := 0
	for c.used > c.capacity {
		back := c.order.Back()
		ent := back.Value.(*coreEntry[K, V])
		c.order.Remove(back)
		delete(c.index, ent.key)
		c.used -= ent.size
		evicted++
	}
	return evicted
}

// Remove deletes key if resident, releasing its budget, and reports
// whether an entry was removed — the targeted-invalidation primitive the
// mutation plane uses (eviction removes by recency; Remove removes by
// identity).
func (c *Core[K, V]) Remove(key K) bool {
	el, ok := c.index[key]
	if !ok {
		return false
	}
	ent := el.Value.(*coreEntry[K, V])
	c.order.Remove(el)
	delete(c.index, key)
	c.used -= ent.size
	return true
}

// Used returns the bytes currently resident.
func (c *Core[K, V]) Used() int { return c.used }

// Cap returns the byte budget.
func (c *Core[K, V]) Cap() int { return c.capacity }

// Len returns the number of resident entries.
func (c *Core[K, V]) Len() int { return c.order.Len() }
