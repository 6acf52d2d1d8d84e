// Package lru is the repository's one recency map: a hash map whose
// entries are threaded on a doubly-linked list, oldest to newest. Put
// and Get move an entry to the newest end, Peek reads without moving it
// (so a FIFO is the same map read with Peek), and RemoveOldest pops the
// other end.
//
// It has no budget, no eviction callback and no lock on purpose: what
// "full" means (bytes plus cached deltas, a count) and who locks differ per
// owner, so each owner keeps its own `for over { m.RemoveOldest() }` loop
// and its own mutex.
package lru

// Map is a map from K to V that remembers recency order. The zero value
// is an empty map ready to use. A Map is not safe for concurrent use.
type Map[K comparable, V any] struct {
	items          map[K]*node[K, V]
	oldest, newest *node[K, V]
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V] // prev is older, next is newer
}

// Len returns the number of entries.
func (m *Map[K, V]) Len() int { return len(m.items) }

// Get returns key's value and marks it newest.
func (m *Map[K, V]) Get(key K) (V, bool) {
	n, ok := m.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.touch(n)
	return n.val, true
}

// Peek returns key's value without changing the order.
func (m *Map[K, V]) Peek(key K) (V, bool) {
	n, ok := m.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	return n.val, true
}

// Put sets key's value and marks it newest. When the key was already
// present it returns the value it replaced.
func (m *Map[K, V]) Put(key K, val V) (old V, replaced bool) {
	if n, ok := m.items[key]; ok {
		old, n.val = n.val, val
		m.touch(n)
		return old, true
	}
	if m.items == nil {
		m.items = make(map[K]*node[K, V])
	}
	n := &node[K, V]{key: key, val: val}
	m.items[key] = n
	m.pushNewest(n)
	return old, false
}

// Remove deletes key and returns the value it held.
func (m *Map[K, V]) Remove(key K) (V, bool) {
	n, ok := m.items[key]
	if !ok {
		var zero V
		return zero, false
	}
	m.unlink(n)
	delete(m.items, key)
	return n.val, true
}

// RemoveOldest deletes and returns the oldest entry; ok is false when the
// map is empty.
func (m *Map[K, V]) RemoveOldest() (key K, val V, ok bool) {
	n := m.oldest
	if n == nil {
		return key, val, false
	}
	m.unlink(n)
	delete(m.items, n.key)
	return n.key, n.val, true
}

// Each calls f for every entry, oldest first. f must not modify the map.
func (m *Map[K, V]) Each(f func(key K, val V)) {
	for n := m.oldest; n != nil; n = n.next {
		f(n.key, n.val)
	}
}

func (m *Map[K, V]) touch(n *node[K, V]) {
	if n != m.newest {
		m.unlink(n)
		m.pushNewest(n)
	}
}

func (m *Map[K, V]) pushNewest(n *node[K, V]) {
	n.prev, n.next = m.newest, nil
	if m.newest != nil {
		m.newest.next = n
	} else {
		m.oldest = n
	}
	m.newest = n
}

func (m *Map[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		m.oldest = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		m.newest = n.prev
	}
	n.prev, n.next = nil, nil
}
