package lru

import (
	"math/rand"
	"testing"
)

// model is the naive oracle: a map for the values and a slice, oldest
// first, for the order.
type model struct {
	vals  map[int]int
	order []int
}

func (m *model) forget(key int) {
	for i, k := range m.order {
		if k == key {
			m.order = append(m.order[:i], m.order[i+1:]...)
			return
		}
	}
}

func (m *model) get(key int, touch bool) (int, bool) {
	v, ok := m.vals[key]
	if ok && touch {
		m.forget(key)
		m.order = append(m.order, key)
	}
	return v, ok
}

func (m *model) put(key, val int) (int, bool) {
	old, ok := m.vals[key]
	m.forget(key)
	m.vals[key] = val
	m.order = append(m.order, key)
	return old, ok
}

func (m *model) remove(key int) (int, bool) {
	v, ok := m.vals[key]
	m.forget(key)
	delete(m.vals, key)
	return v, ok
}

// TestMapMatchesModel drives a Map and the naive model through the same
// random operations and compares every returned value, the length and the
// full oldest-first order after each step. The Map starts as its zero
// value.
func TestMapMatchesModel(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var m Map[int, int]
	ref := model{vals: map[int]int{}}
	const keys = 24 // small key space: replacements and re-touches are common

	for step := 0; step < 20000; step++ {
		key, val := rng.Intn(keys), rng.Int()
		var got, want int
		var gotOK, wantOK bool
		op := rng.Intn(10)
		switch {
		case op < 2:
			got, gotOK = m.Get(key)
			want, wantOK = ref.get(key, true)
		case op < 4:
			got, gotOK = m.Peek(key)
			want, wantOK = ref.get(key, false)
		case op < 7:
			got, gotOK = m.Put(key, val)
			want, wantOK = ref.put(key, val)
		case op < 9:
			got, gotOK = m.Remove(key)
			want, wantOK = ref.remove(key)
		default:
			var gotKey, wantKey int
			gotKey, got, gotOK = m.RemoveOldest()
			if len(ref.order) > 0 {
				wantKey = ref.order[0]
				want, wantOK = ref.remove(wantKey)
			}
			if gotKey != wantKey {
				t.Fatalf("step %d: RemoveOldest key %d, want %d", step, gotKey, wantKey)
			}
		}
		if got != want || gotOK != wantOK {
			t.Fatalf("step %d op %d key %d: got (%d, %v), want (%d, %v)", step, op, key, got, gotOK, want, wantOK)
		}
		if m.Len() != len(ref.order) {
			t.Fatalf("step %d: Len %d, want %d", step, m.Len(), len(ref.order))
		}
		i := 0
		m.Each(func(k, v int) {
			if i >= len(ref.order) || k != ref.order[i] || v != ref.vals[k] {
				t.Fatalf("step %d: Each entry %d is (%d, %d), model order %v", step, i, k, v, ref.order)
			}
			i++
		})
		if i != len(ref.order) {
			t.Fatalf("step %d: Each visited %d entries, want %d", step, i, len(ref.order))
		}
	}
}
