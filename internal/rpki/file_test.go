package rpki

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/astypes"
)

// TestParse32BitOrigins: the ROA file takes 32-bit origins, as RTR and
// inline ROAs do.
func TestParse32BitOrigins(t *testing.T) {
	roas, err := Parse(strings.NewReader("10.0.0.0/8=65536\n131.179.0.0/16=4200000000@24\n"))
	if err != nil {
		t.Fatal(err)
	}
	s := NewStore()
	for _, r := range roas {
		s.Add(r)
	}
	for _, c := range []struct {
		prefix string
		origin uint32
	}{
		{"10.0.0.0/8", 65536},
		{"131.179.1.0/24", 4200000000},
	} {
		if v := s.Validate(p(c.prefix), astypes.ASN(c.origin)); v != Valid {
			t.Errorf("%s from AS %d: %v, want valid", c.prefix, c.origin, v)
		}
	}
}

// FuzzParseROAs: Parse never panics, every ROA it accepts has a MaxLen
// in [Prefix.Len, 32], and each ROA rendered as prefix=origin@maxlen
// parses back to itself.
func FuzzParseROAs(f *testing.F) {
	for _, seed := range []string{
		"131.179.0.0/16=65001@24,65002\n# comment\n\n10.0.0.0/8 = 65003\n",
		"10.0.0.0/8=4200000000@32",
		"0.0.0.0/0=0",
		"10.0.0.0/8=65001@4",
		"10.0.0.0/8=65001,4294967296",
		"banana=1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		roas, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		for _, r := range roas {
			if r.MaxLen < r.Prefix.Len || r.MaxLen > 32 {
				t.Fatalf("%v: maxlen %d outside [%d, 32]", r, r.MaxLen, r.Prefix.Len)
			}
			line := fmt.Sprintf("%s=%d@%d", r.Prefix, uint32(r.Origin), r.MaxLen)
			again, err := Parse(strings.NewReader(line))
			if err != nil || len(again) != 1 || again[0] != r {
				t.Fatalf("%q parsed to %v (%v), want %v", line, again, err, r)
			}
		}
	})
}
