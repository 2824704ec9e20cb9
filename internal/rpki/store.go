// Package rpki provides origin validation (ROV) for the MOAS detector:
// an ROA store keyed by a prefix trie, an RTR-style incremental feed,
// and the classification that crosses an ROV outcome with the MOAS
// checker's verdict to label every alarm bundle benign-moas /
// likely-misconfig / likely-hijack.
//
// The MOAS-list mechanism (the paper's contribution) detects that two
// origins disagree; it cannot say which one is entitled to the prefix.
// A Route Origin Authorization can: if the cryptographically published
// ROA set covers the prefix and the announced origin is not authorized,
// the announcement is Invalid and the alarm is very likely a hijack.
// Conversely most long-lived MOAS conflicts are benign (multihoming,
// anycast), so an uncovered conflict stays a benign-moas observation.
//
// Validate is allocation-free (an AllocsPerRun guard enforces it) so
// the live path can cross-check every conflict at alarm rate.
package rpki

import (
	"fmt"
	"sync"

	"repro/internal/astypes"
	"repro/internal/ptrie"
)

// ROA is one Route Origin Authorization: Origin may announce Prefix and
// any more-specific of it up to MaxLen. A MaxLen of 0 (or below the
// prefix length) means "exactly this prefix".
type ROA struct {
	Prefix astypes.Prefix
	MaxLen uint8
	Origin astypes.ASN
}

// normalized masks stray host bits and resolves the MaxLen default so
// equal authorizations compare equal.
func (r ROA) normalized() ROA {
	if r.Prefix.Len > 32 {
		r.Prefix.Len = 32
	}
	var mask uint32
	if r.Prefix.Len > 0 {
		mask = ^uint32(0) << (32 - r.Prefix.Len)
	}
	r.Prefix.Addr &= mask
	if r.MaxLen < r.Prefix.Len || r.MaxLen > 32 {
		r.MaxLen = r.Prefix.Len
	}
	return r
}

func (r ROA) String() string {
	if r.MaxLen > r.Prefix.Len {
		return fmt.Sprintf("%s@%d=>AS%d", r.Prefix, r.MaxLen, r.Origin)
	}
	return fmt.Sprintf("%s=>AS%d", r.Prefix, r.Origin)
}

// roaLess orders ROAs by (address, length, maxLen, origin); the store
// and the RTR server emit snapshots in this order so full-feed streams
// are deterministic.
func roaLess(a, b ROA) bool {
	if a.Prefix.Addr != b.Prefix.Addr {
		return a.Prefix.Addr < b.Prefix.Addr
	}
	if a.Prefix.Len != b.Prefix.Len {
		return a.Prefix.Len < b.Prefix.Len
	}
	if a.MaxLen != b.MaxLen {
		return a.MaxLen < b.MaxLen
	}
	return a.Origin < b.Origin
}

// entry is the per-prefix payload: one authorized (origin, maxLen)
// pair. All entries under one trie node share the node's prefix.
type entry struct {
	maxLen uint8
	origin astypes.ASN
}

// Validity is the RFC 6811 origin-validation outcome.
type Validity uint8

const (
	// NotFound: no ROA covers the announced prefix — the RPKI is silent.
	NotFound Validity = iota
	// Valid: a covering ROA authorizes the announced origin at the
	// announced length.
	Valid
	// Invalid: at least one ROA covers the prefix but none authorizes
	// this (origin, length) pair.
	Invalid
)

func (v Validity) String() string {
	switch v {
	case Valid:
		return "valid"
	case Invalid:
		return "invalid"
	default:
		return "not-found"
	}
}

// Store is a concurrent-read ROA table keyed by a prefix trie. Writers
// (the RTR client, config loaders) take the write lock; Validate runs
// under the read lock and allocates nothing.
type Store struct {
	mu    sync.RWMutex
	trie  *ptrie.Trie[[]entry]
	count int
}

// NewStore returns an empty store.
func NewStore() *Store {
	return &Store{trie: ptrie.New[[]entry]()}
}

// Len returns the number of ROAs held. A nil store holds none.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.count
}

// Add inserts one ROA, reporting whether it was new.
func (s *Store) Add(r ROA) bool {
	r = r.normalized()
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.addLocked(r)
}

func (s *Store) addLocked(r ROA) bool {
	entries, _ := s.trie.Get(r.Prefix)
	at := len(entries)
	for i, e := range entries {
		if e.maxLen == r.MaxLen && e.origin == r.Origin {
			return false
		}
		if r.MaxLen < e.maxLen || (r.MaxLen == e.maxLen && r.Origin < e.origin) {
			at = i
			break
		}
	}
	// Keep entries sorted by (maxLen, origin) so snapshots are
	// deterministic regardless of feed arrival order.
	entries = append(entries, entry{})
	copy(entries[at+1:], entries[at:])
	entries[at] = entry{maxLen: r.MaxLen, origin: r.Origin}
	s.trie.Insert(r.Prefix, entries)
	s.count++
	return true
}

// Remove deletes one ROA, reporting whether it existed.
func (s *Store) Remove(r ROA) bool {
	r = r.normalized()
	s.mu.Lock()
	defer s.mu.Unlock()
	entries, ok := s.trie.Get(r.Prefix)
	if !ok {
		return false
	}
	for i, e := range entries {
		if e.maxLen == r.MaxLen && e.origin == r.Origin {
			entries = append(entries[:i], entries[i+1:]...)
			if len(entries) == 0 {
				s.trie.Delete(r.Prefix)
			} else {
				s.trie.Insert(r.Prefix, entries)
			}
			s.count--
			return true
		}
	}
	return false
}

// ReplaceAll atomically swaps the store's contents for the given set —
// the RTR client uses it to land a full cache response without readers
// ever seeing a half-loaded table.
func (s *Store) ReplaceAll(roas []ROA) {
	trie := ptrie.New[[]entry]()
	count := 0
	tmp := &Store{trie: trie}
	for _, r := range roas {
		if tmp.addLocked(r.normalized()) {
			count++
		}
	}
	s.mu.Lock()
	s.trie = tmp.trie
	s.count = count
	s.mu.Unlock()
}

// Snapshot returns every ROA in deterministic (address, length, maxLen,
// origin) order.
func (s *Store) Snapshot() []ROA {
	if s == nil {
		return nil
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ROA, 0, s.count)
	s.trie.Walk(func(prefix astypes.Prefix, entries []entry) bool {
		for _, e := range entries {
			out = append(out, ROA{Prefix: prefix, MaxLen: e.maxLen, Origin: e.origin})
		}
		return true
	})
	return out
}

// Validate computes the RFC 6811 outcome for an announcement: Valid if
// any covering ROA authorizes origin at the announced length, Invalid
// if the prefix is covered but no ROA matches, NotFound if no ROA
// covers it at all. A nil store validates everything to NotFound, so
// call sites need no RPKI-configured guard.
func (s *Store) Validate(prefix astypes.Prefix, origin astypes.ASN) Validity {
	if s == nil {
		return NotFound
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	v := NotFound
	it := s.trie.CoverIter(prefix)
	for {
		_, entries, ok := it.Next()
		if !ok {
			return v
		}
		if len(entries) > 0 {
			v = Invalid // covered; upgraded to Valid on a match
		}
		for _, e := range entries {
			if e.origin == origin && prefix.Len <= e.maxLen {
				return Valid
			}
		}
	}
}
