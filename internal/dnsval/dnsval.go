// Package dnsval implements the DNS-based origin-verification side of
// the system (paper §4.4, after Bates et al.): a store of MOASRR
// records mapping an address prefix to the AS numbers entitled to
// originate it, a lookup API shaped like a DNS resource-record query
// (including longest-match semantics on the reversed-prefix namespace),
// and optional record signing so tests can exercise the paper's
// "DNS security can be used to assure correctness" point.
//
// The store satisfies core.Resolver, so a simulated network, a live
// speaker or the off-line monitor can resolve MOAS alarms against it
// exactly the way the paper prescribes: "whenever a MOAS conflict
// for prefix p, the router performs a DNS lookup to verify the origin
// AS of p ... If the origin AS in a route announcement does not match
// any AS number in the AS list of DNS MOASRR record, the route
// announcement should be considered as bogus."
package dnsval

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/ptrie"
)

// MOASRR is one DNS resource record asserting the valid origin set for
// a prefix.
type MOASRR struct {
	Prefix  astypes.Prefix
	Origins core.List
	// Signature authenticates the record under the store's key (DNSSEC
	// stand-in); empty for unsigned records.
	Signature []byte
}

// Name returns the record's DNS-style owner name in the conventional
// reverse in-addr form, e.g. "16/179.131.in-addr.moas." for
// 131.179.0.0/16.
func (r MOASRR) Name() string {
	a := r.Prefix.Addr
	octets := [4]byte{byte(a >> 24), byte(a >> 16), byte(a >> 8), byte(a)}
	significant := int(r.Prefix.Len+7) / 8
	if significant == 0 {
		significant = 1
	}
	name := fmt.Sprintf("%d/", r.Prefix.Len)
	for i := significant - 1; i >= 0; i-- {
		name += fmt.Sprintf("%d.", octets[i])
	}
	return name + "in-addr.moas."
}

// Errors returned by Store operations.
var (
	ErrNotFound     = errors.New("no MOASRR record")
	ErrBadSignature = errors.New("MOASRR signature verification failed")
)

// Store is an in-memory MOASRR database. It is safe for concurrent use.
type Store struct {
	mu      sync.RWMutex
	records map[astypes.Prefix]MOASRR
	// trie indexes registered prefixes for covering lookups.
	trie *ptrie.Trie[astypes.Prefix]
	key  []byte
	// queries counts lookups, letting tests verify the paper's point
	// that DNS queries happen only on conflicts.
	queries int
}

// StoreOption configures a Store.
type StoreOption interface {
	apply(*Store)
}

type keyOption []byte

func (k keyOption) apply(s *Store) { s.key = []byte(k) }

// WithSigningKey enables record signing/verification under an
// HMAC-SHA256 key (the repository's stand-in for DNSSEC).
func WithSigningKey(key []byte) StoreOption {
	return keyOption(append([]byte(nil), key...))
}

// NewStore returns an empty store.
func NewStore(opts ...StoreOption) *Store {
	s := &Store{
		records: make(map[astypes.Prefix]MOASRR),
		trie:    ptrie.New[astypes.Prefix](),
	}
	for _, o := range opts {
		o.apply(s)
	}
	return s
}

// Register installs (or replaces) the MOASRR for a prefix, signing it
// if the store has a key.
func (s *Store) Register(prefix astypes.Prefix, origins core.List) {
	rec := MOASRR{Prefix: prefix, Origins: origins}
	if len(s.key) > 0 {
		rec.Signature = s.sign(rec)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.records[prefix] = rec
	s.trie.Insert(prefix, prefix)
}

// Remove deletes the record for a prefix.
func (s *Store) Remove(prefix astypes.Prefix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.records, prefix)
	s.trie.Delete(prefix)
}

// Lookup returns the record for exactly this prefix, verifying its
// signature when the store is keyed.
func (s *Store) Lookup(prefix astypes.Prefix) (MOASRR, error) {
	s.mu.Lock()
	s.queries++
	rec, ok := s.records[prefix]
	key := s.key
	s.mu.Unlock()
	if !ok {
		return MOASRR{}, fmt.Errorf("%w for %s", ErrNotFound, prefix)
	}
	if len(key) > 0 && !hmac.Equal(rec.Signature, s.sign(rec)) {
		return MOASRR{}, fmt.Errorf("%w for %s", ErrBadSignature, prefix)
	}
	return rec, nil
}

// LookupCovering returns the record for the longest registered prefix
// covering the query prefix — the DNS walk a resolver performs when the
// exact name is absent.
func (s *Store) LookupCovering(prefix astypes.Prefix) (MOASRR, error) {
	s.mu.Lock()
	s.queries++
	var (
		best  MOASRR
		found bool
	)
	if _, match, ok := s.trie.LongestMatchPrefix(prefix); ok {
		best, found = s.records[match], true
	}
	key := s.key
	s.mu.Unlock()
	if !found {
		return MOASRR{}, fmt.Errorf("%w covering %s", ErrNotFound, prefix)
	}
	if len(key) > 0 && !hmac.Equal(best.Signature, s.sign(best)) {
		return MOASRR{}, fmt.Errorf("%w for %s", ErrBadSignature, best.Prefix)
	}
	return best, nil
}

// Verify checks one (prefix, origin) claim against the database: the
// paper's bogus-route test.
func (s *Store) Verify(prefix astypes.Prefix, origin astypes.ASN) (bool, error) {
	rec, err := s.LookupCovering(prefix)
	if err != nil {
		return false, err
	}
	return rec.Origins.Contains(origin), nil
}

// ValidOrigins implements core.Resolver.
func (s *Store) ValidOrigins(prefix astypes.Prefix) (core.List, bool) {
	rec, err := s.LookupCovering(prefix)
	if err != nil {
		return core.List{}, false
	}
	return rec.Origins, true
}

// Queries returns the number of lookups served so far.
func (s *Store) Queries() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.queries
}

// Len returns the number of registered records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.records)
}

// Tamper corrupts the stored signature for a prefix (test hook for the
// forged-DNS threat the paper cites from Atkins & Austein).
func (s *Store) Tamper(prefix astypes.Prefix) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if rec, ok := s.records[prefix]; ok {
		rec.Signature = append([]byte(nil), rec.Signature...)
		if len(rec.Signature) == 0 {
			rec.Signature = []byte{0}
		}
		rec.Signature[0] ^= 0xff
		s.records[prefix] = rec
	}
}

func (s *Store) sign(rec MOASRR) []byte {
	mac := hmac.New(sha256.New, s.key)
	fmt.Fprintf(mac, "%s=%s", rec.Prefix, rec.Origins)
	return mac.Sum(nil)
}
