package dnsval

import (
	"errors"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
)

var (
	p16 = astypes.MustPrefix(0x83b30000, 16) // 131.179.0.0/16
	p24 = astypes.MustPrefix(0x83b34500, 24) // 131.179.69.0/24
	p8  = astypes.MustPrefix(0x83000000, 8)  // 131.0.0.0/8
)

func TestRegisterLookup(t *testing.T) {
	s := NewStore()
	s.Register(p16, core.NewList(4, 226))
	rec, err := s.Lookup(p16)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Origins != core.NewList(4, 226) {
		t.Errorf("origins = %v", rec.Origins)
	}
	if _, err := s.Lookup(p24); !errors.Is(err, ErrNotFound) {
		t.Errorf("exact lookup of unregistered prefix: %v", err)
	}
	if s.Len() != 1 {
		t.Errorf("Len = %d", s.Len())
	}
	s.Remove(p16)
	if _, err := s.Lookup(p16); !errors.Is(err, ErrNotFound) {
		t.Error("record survived Remove")
	}
}

func TestLookupCoveringLongestMatch(t *testing.T) {
	s := NewStore()
	s.Register(p8, core.NewList(1))
	s.Register(p16, core.NewList(2))
	rec, err := s.LookupCovering(p24)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Prefix != p16 {
		t.Errorf("covering = %v, want the /16", rec.Prefix)
	}
	// A query outside both registered trees fails.
	other := astypes.MustPrefix(0x0a000000, 8)
	if _, err := s.LookupCovering(other); !errors.Is(err, ErrNotFound) {
		t.Errorf("unexpected covering result: %v", err)
	}
}

func TestVerify(t *testing.T) {
	s := NewStore()
	s.Register(p16, core.NewList(4, 226))
	ok, err := s.Verify(p24, 4)
	if err != nil || !ok {
		t.Errorf("Verify(4) = %v, %v", ok, err)
	}
	ok, err = s.Verify(p24, 52)
	if err != nil || ok {
		t.Errorf("Verify(52) = %v, %v (the paper's bogus-route test)", ok, err)
	}
	if _, err := s.Verify(astypes.MustPrefix(0x0a000000, 8), 4); err == nil {
		t.Error("Verify without a record should fail")
	}
}

func TestValidOriginsResolverInterface(t *testing.T) {
	s := NewStore()
	s.Register(p16, core.NewList(4))
	list, ok := s.ValidOrigins(p24)
	if !ok || list != core.NewList(4) {
		t.Errorf("ValidOrigins = %v, %v", list, ok)
	}
	if _, ok := s.ValidOrigins(astypes.MustPrefix(0x0a000000, 8)); ok {
		t.Error("ValidOrigins without a record should report false")
	}
}

func TestSignedRecords(t *testing.T) {
	s := NewStore(WithSigningKey([]byte("dnssec-standin")))
	s.Register(p16, core.NewList(4))
	if _, err := s.Lookup(p16); err != nil {
		t.Fatalf("signed lookup: %v", err)
	}
	s.Tamper(p16)
	if _, err := s.Lookup(p16); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered record accepted: %v", err)
	}
	if _, err := s.LookupCovering(p24); !errors.Is(err, ErrBadSignature) {
		t.Errorf("tampered record accepted via covering lookup: %v", err)
	}
}

func TestUnsignedStoreIgnoresTamper(t *testing.T) {
	s := NewStore()
	s.Register(p16, core.NewList(4))
	s.Tamper(p16) // no key: signatures are not checked
	if _, err := s.Lookup(p16); err != nil {
		t.Errorf("unsigned store should not verify: %v", err)
	}
}

func TestQueryCounting(t *testing.T) {
	s := NewStore()
	s.Register(p16, core.NewList(4))
	s.Lookup(p16)
	s.LookupCovering(p24)
	s.Verify(p16, 4)
	if got := s.Queries(); got != 3 {
		t.Errorf("Queries = %d, want 3", got)
	}
}

func TestMOASRRName(t *testing.T) {
	tests := []struct {
		prefix astypes.Prefix
		want   string
	}{
		{p16, "16/179.131.in-addr.moas."},
		{p24, "24/69.179.131.in-addr.moas."},
		{astypes.MustPrefix(0x0a000000, 8), "8/10.in-addr.moas."},
	}
	for _, tt := range tests {
		rec := MOASRR{Prefix: tt.prefix}
		if got := rec.Name(); got != tt.want {
			t.Errorf("Name(%v) = %q, want %q", tt.prefix, got, tt.want)
		}
	}
}
