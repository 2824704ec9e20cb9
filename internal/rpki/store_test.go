package rpki

import (
	"strings"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
)

func p(s string) astypes.Prefix {
	prefix, err := astypes.ParsePrefix(s)
	if err != nil {
		panic(err)
	}
	return prefix
}

func TestValidateSemantics(t *testing.T) {
	s := NewStore()
	s.Add(ROA{Prefix: p("131.179.0.0/16"), MaxLen: 24, Origin: 65001})
	s.Add(ROA{Prefix: p("10.0.0.0/8"), Origin: 65002})

	tests := []struct {
		prefix astypes.Prefix
		origin astypes.ASN
		want   Validity
	}{
		// Authorized origin at the covered lengths.
		{p("131.179.0.0/16"), 65001, Valid},
		{p("131.179.7.0/24"), 65001, Valid},
		// More specific than maxLen: covered but not authorized.
		{p("131.179.7.128/25"), 65001, Invalid},
		// Wrong origin under a covering ROA.
		{p("131.179.0.0/16"), 64999, Invalid},
		{p("131.179.7.0/24"), 64999, Invalid},
		// MaxLen defaulting to the prefix length: /8 valid, /9 not.
		{p("10.0.0.0/8"), 65002, Valid},
		{p("10.128.0.0/9"), 65002, Invalid},
		// Nothing covers these at all.
		{p("192.168.0.0/16"), 65001, NotFound},
		{p("131.0.0.0/8"), 65001, NotFound}, // less specific than the ROA
	}
	for _, tt := range tests {
		if got := s.Validate(tt.prefix, tt.origin); got != tt.want {
			t.Errorf("Validate(%v, AS%d) = %v, want %v", tt.prefix, tt.origin, got, tt.want)
		}
	}

	// A second ROA for another origin turns Invalid back into Valid for
	// that origin without disturbing the first.
	s.Add(ROA{Prefix: p("131.179.0.0/16"), MaxLen: 16, Origin: 64999})
	if got := s.Validate(p("131.179.0.0/16"), 64999); got != Valid {
		t.Errorf("second-origin ROA ignored: %v", got)
	}
	if got := s.Validate(p("131.179.7.0/24"), 64999); got != Invalid {
		t.Errorf("second-origin maxlen not honored: %v", got)
	}

	// A nil store validates everything to NotFound.
	var nilStore *Store
	if got := nilStore.Validate(p("131.179.0.0/16"), 65001); got != NotFound {
		t.Errorf("nil store = %v, want NotFound", got)
	}
	if nilStore.Len() != 0 || nilStore.Snapshot() != nil {
		t.Error("nil store should be empty")
	}
}

func TestAddRemoveReplace(t *testing.T) {
	s := NewStore()
	r1 := ROA{Prefix: p("10.0.0.0/8"), MaxLen: 16, Origin: 1}
	r2 := ROA{Prefix: p("10.0.0.0/8"), MaxLen: 16, Origin: 2}
	if !s.Add(r1) || !s.Add(r2) {
		t.Fatal("fresh adds reported not-new")
	}
	if s.Add(r1) {
		t.Error("duplicate add reported new")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if !s.Remove(r1) {
		t.Error("remove existing failed")
	}
	if s.Remove(r1) {
		t.Error("double remove succeeded")
	}
	if s.Validate(p("10.1.0.0/16"), 1) != Invalid {
		t.Error("removed ROA still validates")
	}
	if s.Validate(p("10.1.0.0/16"), 2) != Valid {
		t.Error("sibling ROA lost on remove")
	}
	s.Remove(r2)
	if s.Len() != 0 || s.Validate(p("10.1.0.0/16"), 2) != NotFound {
		t.Error("store not empty after removing everything")
	}

	s.ReplaceAll([]ROA{r1, r2, r1}) // duplicate collapses
	if s.Len() != 2 {
		t.Errorf("ReplaceAll Len = %d, want 2", s.Len())
	}
	s.ReplaceAll(nil)
	if s.Len() != 0 {
		t.Errorf("ReplaceAll(nil) Len = %d, want 0", s.Len())
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []ROA) []ROA {
		s := NewStore()
		for _, r := range order {
			s.Add(r)
		}
		return s.Snapshot()
	}
	roas := []ROA{
		{Prefix: p("10.0.0.0/8"), MaxLen: 24, Origin: 7},
		{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 9},
		{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 3},
		{Prefix: p("9.0.0.0/8"), Origin: 1},
		{Prefix: p("10.1.0.0/16"), Origin: 2},
	}
	fwd := build(roas)
	rev := build([]ROA{roas[4], roas[3], roas[2], roas[1], roas[0]})
	if len(fwd) != len(rev) || len(fwd) != 5 {
		t.Fatalf("snapshots %v vs %v", fwd, rev)
	}
	for i := range fwd {
		if fwd[i] != rev[i] {
			t.Fatalf("insertion order leaked into snapshot: %v vs %v", fwd, rev)
		}
		if i > 0 && !roaLess(fwd[i-1], fwd[i]) {
			t.Fatalf("snapshot not sorted: %v", fwd)
		}
	}
}

func TestROANormalization(t *testing.T) {
	s := NewStore()
	// Host bits are masked; MaxLen below the length snaps to the length.
	s.Add(ROA{Prefix: astypes.Prefix{Addr: 0x0a010203, Len: 16}, MaxLen: 8, Origin: 5})
	if !s.Remove(ROA{Prefix: p("10.1.0.0/16"), Origin: 5}) {
		t.Error("normalized forms did not match")
	}
}

// TestValidateAllocFree pins the lookup path at zero allocations.
func TestValidateAllocFree(t *testing.T) {
	s := NewStore()
	s.Add(ROA{Prefix: p("131.179.0.0/16"), MaxLen: 24, Origin: 65001})
	s.Add(ROA{Prefix: p("131.0.0.0/8"), Origin: 65000})
	s.Add(ROA{Prefix: p("0.0.0.0/0"), Origin: 64000})
	queries := []struct {
		prefix astypes.Prefix
		origin astypes.ASN
	}{
		{p("131.179.7.0/24"), 65001}, // Valid
		{p("131.179.7.0/24"), 64999}, // Invalid
		{p("131.179.0.0/16"), 65001}, // Valid at the root of the ROA
	}
	allocs := testing.AllocsPerRun(200, func() {
		for _, q := range queries {
			s.Validate(q.prefix, q.origin)
		}
	})
	if allocs != 0 {
		t.Errorf("Validate allocates %v per run, want 0", allocs)
	}
}

func TestClassifyMatrix(t *testing.T) {
	tests := []struct {
		v       Validity
		verdict core.Verdict
		want    Class
	}{
		{Invalid, core.VerdictConflict, ClassLikelyHijack},
		{Invalid, core.VerdictOriginNotListed, ClassLikelyHijack},
		{Valid, core.VerdictConflict, ClassLikelyMisconfig},
		{Valid, core.VerdictOriginNotListed, ClassLikelyMisconfig},
		{NotFound, core.VerdictConflict, ClassBenignMOAS},
		{NotFound, core.VerdictOriginNotListed, ClassLikelyMisconfig},
		{NotFound, core.VerdictUnset, ClassBenignMOAS},
	}
	for _, tt := range tests {
		if got := Classify(tt.v, tt.verdict); got != tt.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", tt.v, tt.verdict, got, tt.want)
		}
	}
	if ClassBenignMOAS.String() != "benign-moas" ||
		ClassLikelyMisconfig.String() != "likely-misconfig" ||
		ClassLikelyHijack.String() != "likely-hijack" {
		t.Error("class strings wrong")
	}
	if NotFound.String() != "not-found" || Valid.String() != "valid" || Invalid.String() != "invalid" {
		t.Error("validity strings wrong")
	}
}

func TestParse(t *testing.T) {
	const text = `
# covering ROAs for the e2e prefix
131.179.0.0/16=65001@24,65002

10.0.0.0/8 = 65003
`
	roas, err := Parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := []ROA{
		{Prefix: p("131.179.0.0/16"), MaxLen: 24, Origin: 65001},
		{Prefix: p("131.179.0.0/16"), MaxLen: 16, Origin: 65002},
		{Prefix: p("10.0.0.0/8"), MaxLen: 8, Origin: 65003},
	}
	if len(roas) != len(want) {
		t.Fatalf("parsed %v, want %v", roas, want)
	}
	for i := range want {
		if roas[i].normalized() != want[i].normalized() {
			t.Errorf("roas[%d] = %v, want %v", i, roas[i], want[i])
		}
	}

	bad := []string{
		"131.179.0.0/16",              // no origins
		"131.179.0.0/16=",             // empty origin list
		"banana=65001",                // bad prefix
		"10.0.0.0/8=notanumber",       // bad origin
		"10.0.0.0/8=65001@4",          // maxlen below prefix length
		"10.0.0.0/8=65001@40",         // maxlen beyond 32
		"10.0.0.0/8=65001,4294967296", // origin outside uint32
	}
	for _, line := range bad {
		if _, err := Parse(strings.NewReader(line)); err == nil {
			t.Errorf("Parse(%q) accepted", line)
		}
	}
}

func TestParseFileMissing(t *testing.T) {
	if _, err := ParseFile("/nonexistent/roas.txt"); err == nil {
		t.Error("missing file accepted")
	}
}
