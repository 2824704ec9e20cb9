package dnsval

import (
	"strings"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
)

func TestParse(t *testing.T) {
	store, err := Parse(strings.NewReader(`
# comment and blank lines are skipped

131.179.0.0/16 = 4, 226
10.0.0.0/8=7
`))
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("Len = %d", store.Len())
	}
	list, ok := store.ValidOrigins(p16)
	if !ok || list != core.NewList(4, 226) {
		t.Errorf("record = %v, %v", list, ok)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"no equals":  "131.179.0.0/16 4\n",
		"bad prefix": "banana=4\n",
		"bad asn":    "10.0.0.0/8=x\n",
	}
	for name, content := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(content)); err == nil {
				t.Error("bad database accepted")
			}
		})
	}
}

// FuzzParseMOASRR: Parse never panics, and in an accepted database the
// prefix of every record line resolves to exactly the origins its last
// line lists.
func FuzzParseMOASRR(f *testing.F) {
	for _, seed := range []string{
		"\n# comment and blank lines are skipped\n\n131.179.0.0/16 = 4, 226\n10.0.0.0/8=7\n",
		"131.179.0.0/16 4\n",
		"banana=4\n",
		"10.0.0.0/8=x\n",
		"10.0.0.0/8=7\n10.0.0.0/8=9,4200000000\n",
		"10.0.0.0/8=\n",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		store, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		want := make(map[astypes.Prefix]core.List)
		for _, line := range strings.Split(text, "\n") {
			line = strings.TrimSpace(line)
			if line == "" || strings.HasPrefix(line, "#") {
				continue
			}
			prefixStr, asnsStr, _ := strings.Cut(line, "=")
			prefix, err := astypes.ParsePrefix(strings.TrimSpace(prefixStr))
			if err != nil {
				t.Fatalf("accepted line %q has a bad prefix: %v", line, err)
			}
			var origins []astypes.ASN
			for _, s := range strings.Split(asnsStr, ",") {
				asn, err := astypes.ParseASN(strings.TrimSpace(s))
				if err != nil {
					t.Fatalf("accepted line %q has a bad origin: %v", line, err)
				}
				origins = append(origins, asn)
			}
			want[prefix] = core.NewList(origins...)
		}
		if store.Len() != len(want) {
			t.Fatalf("%d records, want %d", store.Len(), len(want))
		}
		for prefix, list := range want {
			rec, err := store.Lookup(prefix)
			if err != nil || rec.Origins != list {
				t.Fatalf("%s resolves to %v (%v), want %v", prefix, rec.Origins, err, list)
			}
		}
	})
}
