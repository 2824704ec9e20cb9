package telemetry

import (
	"runtime"
	"strings"
	"testing"
)

func TestRegisterBuildInfo(t *testing.T) {
	r := NewRegistry("t")
	RegisterBuildInfo(r)

	var prom strings.Builder
	if err := WritePrometheus(&prom, r); err != nil {
		t.Fatal(err)
	}
	text := prom.String()
	if !strings.Contains(text, "t_build_info{") {
		t.Fatalf("build_info missing from text exposition:\n%s", text)
	}
	if !strings.Contains(text, `goversion="`+runtime.Version()+`"`) {
		t.Errorf("goversion label missing:\n%s", text)
	}
	for _, label := range []string{`version="`, `revision="`} {
		if !strings.Contains(text, label) {
			t.Errorf("label %s missing:\n%s", label, text)
		}
	}

	// The gauge's value is the conventional constant 1.
	for _, fam := range r.Gather() {
		if fam.Name == "t_build_info" {
			if len(fam.Series) != 1 || fam.Series[0].Value != 1 {
				t.Errorf("build_info series: %+v", fam.Series)
			}
			return
		}
	}
	t.Error("build_info family not gathered")
}
