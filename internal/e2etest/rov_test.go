package e2etest

import (
	"encoding/json"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/trace"
)

// TestForgedOriginWithROAClassification reruns the forged-origin attack
// with the victim prefix covered by a ROA authorizing only the
// legitimate origin. The daemon's ROV cross-validation must then
// upgrade the alarm's class to likely-hijack — visible on the
// per-class counter and in the /debug/alarms bundle.
func TestForgedOriginWithROAClassification(t *testing.T) {
	const (
		prefixStr = "131.179.0.0/16"
		legitAS   = 65001
		forgedAS  = 64999
	)
	prefix := astypes.MustPrefix(0x83b30000, 16)

	h := Boot(t, prefixStr, legitAS, legitAS)

	h.StartSpeaker(t, legitAS, prefix, core.NewList(astypes.ASN(legitAS)))
	WaitFor(t, func() bool {
		r := h.Validator.Speaker.Table().Best(prefix)
		return r != nil && r.OriginAS() == legitAS
	}, "legit route at validator")

	// The legitimate origin is ROA-authorized: no alarm, no class count.
	mid := h.Scrape(t)
	if got := mid.Counter("moas_speaker_moas_alarms_total"); got != 0 {
		t.Errorf("legit announcement raised alarms = %v, want 0", got)
	}

	h.StartSpeaker(t, forgedAS, prefix, core.NewList())
	WaitFor(t, func() bool {
		return len(h.Validator.Speaker.Alarms()) >= 1
	}, "alarm at validator")

	final := h.Scrape(t)
	if got := final.Counter("moas_speaker_moas_alarms_total"); got != 1 {
		t.Errorf("moas_alarms_total = %v, want exactly 1", got)
	}
	if got := final.Counter(`moas_speaker_moas_alarm_class_total{class="likely-hijack"}`); got != 1 {
		t.Errorf(`alarm_class_total{class="likely-hijack"} = %v, want exactly 1`, got)
	}
	for _, cls := range []string{"benign-moas", "likely-misconfig"} {
		if got := final.Counter(`moas_speaker_moas_alarm_class_total{class="` + cls + `"}`); got != 0 {
			t.Errorf(`alarm_class_total{class=%q} = %v, want 0`, cls, got)
		}
	}

	// Exactly one forensic bundle, classed likely-hijack on /debug/alarms.
	var bundles []trace.AlarmBundle
	if err := json.Unmarshal([]byte(h.get(t, "/debug/alarms", "")), &bundles); err != nil {
		t.Fatalf("decode /debug/alarms: %v", err)
	}
	if len(bundles) != 1 {
		t.Fatalf("/debug/alarms bundles = %d, want exactly 1", len(bundles))
	}
	b := bundles[0]
	if b.Class != "likely-hijack" {
		t.Errorf("bundle class = %q, want likely-hijack", b.Class)
	}
	if b.Origin != forgedAS || b.Verdict != "conflict" {
		t.Errorf("bundle: origin=%d verdict=%q", b.Origin, b.Verdict)
	}
}
