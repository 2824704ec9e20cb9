// Package ptrie implements a binary radix trie over IPv4 prefixes with
// longest-prefix-match lookup — the forwarding-table structure behind
// simbgp's address-level census and dnsval's covering-record lookup.
// The trie stores one value of type V per prefix.
//
// Operations are O(32) regardless of table size. The zero Trie is not
// usable; call New. Trie is not safe for concurrent mutation; callers
// that share one across goroutines must synchronize (dnsval does).
package ptrie

import (
	"repro/internal/astypes"
)

// Trie is a binary radix trie keyed by IPv4 prefix.
type Trie[V any] struct {
	root *node[V]
	size int
}

type node[V any] struct {
	children [2]*node[V]
	value    V
	present  bool
}

// New returns an empty trie.
func New[V any]() *Trie[V] {
	return &Trie[V]{root: &node[V]{}}
}

// Len returns the number of stored prefixes.
func (t *Trie[V]) Len() int { return t.size }

func bitAt(addr uint32, depth uint8) int {
	return int(addr >> (31 - depth) & 1)
}

// Insert stores (or replaces) the value for prefix.
func (t *Trie[V]) Insert(prefix astypes.Prefix, value V) {
	n := t.root
	for depth := uint8(0); depth < prefix.Len; depth++ {
		b := bitAt(prefix.Addr, depth)
		if n.children[b] == nil {
			n.children[b] = &node[V]{}
		}
		n = n.children[b]
	}
	if !n.present {
		t.size++
	}
	n.value = value
	n.present = true
}

// Delete removes the value for prefix, reporting whether it existed.
// Emptied branches are pruned so long-lived tries do not accrete dead
// nodes.
func (t *Trie[V]) Delete(prefix astypes.Prefix) bool {
	// Record the path for pruning.
	path := make([]*node[V], 0, prefix.Len+1)
	n := t.root
	path = append(path, n)
	for depth := uint8(0); depth < prefix.Len; depth++ {
		b := bitAt(prefix.Addr, depth)
		if n.children[b] == nil {
			return false
		}
		n = n.children[b]
		path = append(path, n)
	}
	if !n.present {
		return false
	}
	var zero V
	n.value = zero
	n.present = false
	t.size--
	// Prune childless, valueless nodes bottom-up (never the root).
	for i := len(path) - 1; i > 0; i-- {
		cur := path[i]
		if cur.present || cur.children[0] != nil || cur.children[1] != nil {
			break
		}
		parent := path[i-1]
		b := bitAt(prefix.Addr, uint8(i-1))
		parent.children[b] = nil
	}
	return true
}

// Get returns the value stored for exactly this prefix.
func (t *Trie[V]) Get(prefix astypes.Prefix) (V, bool) {
	n := t.root
	for depth := uint8(0); depth < prefix.Len; depth++ {
		b := bitAt(prefix.Addr, depth)
		if n.children[b] == nil {
			var zero V
			return zero, false
		}
		n = n.children[b]
	}
	return n.value, n.present
}

// LongestMatch returns the most specific stored prefix covering addr.
func (t *Trie[V]) LongestMatch(addr uint32) (astypes.Prefix, V, bool) {
	var (
		bestPrefix astypes.Prefix
		bestValue  V
		found      bool
	)
	n := t.root
	for depth := uint8(0); ; depth++ {
		if n.present {
			bestPrefix = astypes.Prefix{Addr: maskAddr(addr, depth), Len: depth}
			bestValue = n.value
			found = true
		}
		if depth == 32 {
			break
		}
		b := bitAt(addr, depth)
		if n.children[b] == nil {
			break
		}
		n = n.children[b]
	}
	return bestPrefix, bestValue, found
}

// LongestMatchPrefix returns the most specific stored prefix covering
// the query prefix (the query itself qualifies if stored).
func (t *Trie[V]) LongestMatchPrefix(query astypes.Prefix) (astypes.Prefix, V, bool) {
	var (
		bestPrefix astypes.Prefix
		bestValue  V
		found      bool
	)
	n := t.root
	for depth := uint8(0); ; depth++ {
		if n.present {
			bestPrefix = astypes.Prefix{Addr: maskAddr(query.Addr, depth), Len: depth}
			bestValue = n.value
			found = true
		}
		if depth == query.Len {
			break
		}
		b := bitAt(query.Addr, depth)
		if n.children[b] == nil {
			break
		}
		n = n.children[b]
	}
	return bestPrefix, bestValue, found
}

// CoverIter returns a cursor over every stored prefix covering query
// (the query itself qualifies if stored), shortest first. The cursor is
// a value type and Next performs no allocation, so a lookup path under
// an allocation-free contract (rpki origin validation) can enumerate
// all covering entries — LongestMatchPrefix only yields the most
// specific one. The cursor is invalidated by trie mutation.
func (t *Trie[V]) CoverIter(query astypes.Prefix) CoverIter[V] {
	return CoverIter[V]{n: t.root, query: query}
}

// CoverIter cursors over the stored prefixes covering a query prefix.
type CoverIter[V any] struct {
	n     *node[V]
	query astypes.Prefix
	depth uint8
	done  bool
}

// Next returns the next covering (prefix, value), or ok == false when
// the walk is exhausted.
func (it *CoverIter[V]) Next() (prefix astypes.Prefix, value V, ok bool) {
	for !it.done && it.n != nil {
		n, depth := it.n, it.depth
		// Advance first so a hit can return immediately.
		if depth == it.query.Len {
			it.done = true
		} else {
			it.n = n.children[bitAt(it.query.Addr, depth)]
			it.depth = depth + 1
		}
		if n.present {
			prefix = astypes.Prefix{Addr: maskAddr(it.query.Addr, depth), Len: depth}
			return prefix, n.value, true
		}
	}
	var zero V
	return astypes.Prefix{}, zero, false
}

// Walk visits every stored (prefix, value) in address order (then by
// ascending length); returning false from fn stops the walk.
func (t *Trie[V]) Walk(fn func(prefix astypes.Prefix, value V) bool) {
	t.walk(t.root, 0, 0, fn)
}

func (t *Trie[V]) walk(n *node[V], addr uint32, depth uint8, fn func(astypes.Prefix, V) bool) bool {
	if n == nil {
		return true
	}
	if n.present {
		if !fn(astypes.Prefix{Addr: addr, Len: depth}, n.value) {
			return false
		}
	}
	if depth == 32 {
		return true
	}
	if !t.walk(n.children[0], addr, depth+1, fn) {
		return false
	}
	return t.walk(n.children[1], addr|1<<(31-depth), depth+1, fn)
}

func maskAddr(addr uint32, length uint8) uint32 {
	if length == 0 {
		return 0
	}
	return addr & (^uint32(0) << (32 - length))
}
