package e2etest

import (
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/astypes"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/speaker"
	"repro/internal/trace"
)

// TestForgedOriginObservability runs the paper's attack scenario end to
// end and judges every outcome through the admin endpoint, the way an
// operator would: a legitimate origin announces its prefix with a MOAS
// list, a forged origin announces the same prefix, and the validating
// daemon must raise exactly one alarm, drop the false route, keep the
// collector's view clean — and say all of that on /metrics.
func TestForgedOriginObservability(t *testing.T) {
	const (
		prefixStr   = "131.179.0.0/16"
		legitAS     = 65001
		forgedAS    = 64999
		validatorAS = 100
	)
	prefix := astypes.MustPrefix(0x83b30000, 16)

	h := Boot(t, prefixStr, legitAS)

	// Baseline after boot: the only peering is validator→collector.
	base := h.Scrape(t)
	if got := base.Counter("moas_daemon_peer_up_total"); got != 1 {
		t.Errorf("baseline daemon_peer_up_total = %v, want 1 (the collector peering)", got)
	}
	if got := base.Counter("moas_speaker_moas_alarms_total"); got != 0 {
		t.Errorf("baseline alarms = %v, want 0", got)
	}

	// Phase 1: the legitimate origin announces prefix with list {65001}.
	h.StartSpeaker(t, legitAS, prefix, core.NewList(astypes.ASN(legitAS)))
	WaitFor(t, func() bool {
		r := h.Validator.Speaker.Table().Best(prefix)
		return r != nil && r.OriginAS() == legitAS
	}, "legit route at validator")
	WaitFor(t, func() bool {
		_, ok := h.Collector.RoutesFrom(validatorAS)[prefix]
		return ok
	}, "legit route at collector")

	mid := h.Scrape(t)
	if got := mid.Counter("moas_speaker_routes_accepted_total") - base.Counter("moas_speaker_routes_accepted_total"); got != 1 {
		t.Errorf("legit announcement: routes_accepted delta = %v, want exactly 1", got)
	}
	if got := mid.Counter("moas_speaker_updates_in_total") - base.Counter("moas_speaker_updates_in_total"); got != 1 {
		t.Errorf("legit announcement: updates_in delta = %v, want exactly 1", got)
	}
	if got := mid.Counter("moas_speaker_moas_alarms_total"); got != 0 {
		t.Errorf("legit announcement raised alarms = %v, want 0", got)
	}

	// Phase 2: the forged origin announces the same prefix (implicit
	// list {64999}), conflicting with both the carried list and the
	// validator's MOASRR record.
	h.StartSpeaker(t, forgedAS, prefix, core.NewList())
	WaitFor(t, func() bool {
		return len(h.Validator.Speaker.Alarms()) >= 1
	}, "alarm at validator")

	final := h.Scrape(t)

	// The attack is one forged announcement: exactly one alarm, exactly
	// one rejected route, nothing further accepted.
	if got := final.Counter("moas_speaker_moas_alarms_total") - mid.Counter("moas_speaker_moas_alarms_total"); got != 1 {
		t.Errorf("forged announcement: moas_alarms delta = %v, want exactly 1", got)
	}
	if got := final.Counter("moas_speaker_routes_rejected_total") - mid.Counter("moas_speaker_routes_rejected_total"); got != 1 {
		t.Errorf("forged announcement: routes_rejected delta = %v, want exactly 1", got)
	}
	if got := final.Counter("moas_speaker_routes_accepted_total") - mid.Counter("moas_speaker_routes_accepted_total"); got != 0 {
		t.Errorf("forged announcement: routes_accepted delta = %v, want 0", got)
	}

	// The false route never made it into the forwarding view...
	if r := h.Validator.Speaker.Table().Best(prefix); r == nil || r.OriginAS() != legitAS {
		t.Errorf("validator best route = %+v, want origin %d", r, legitAS)
	}
	// ...nor downstream: the collector still sees only the true origin.
	routes := h.Collector.RoutesFrom(validatorAS)
	path, ok := routes[prefix]
	if !ok {
		t.Fatal("collector lost the legit route")
	}
	if origin, _ := path.Origin(); origin != legitAS {
		t.Errorf("collector sees origin %v, want %d", origin, legitAS)
	}

	// Session-level instrumentation saw the handshakes: three peers
	// (collector, legit, forged) each completed an OPEN exchange.
	if got := final.Counter(`moas_session_msgs_out_total{type="open"}`); got != 3 {
		t.Errorf(`session_msgs_out_total{type="open"} = %v, want 3`, got)
	}

	// The liveness and MIB debug endpoints serve alongside /metrics.
	if body := h.get(t, "/healthz", ""); strings.TrimSpace(body) != "ok" {
		t.Errorf("/healthz body = %q", body)
	}
	var mib speaker.MIB
	if err := json.Unmarshal([]byte(h.get(t, "/debug/mib", "")), &mib); err != nil {
		t.Fatalf("decode /debug/mib: %v", err)
	}
	if mib.AS != validatorAS || mib.Counters.Alarms != 1 {
		t.Errorf("/debug/mib AS = %v alarms = %d, want AS %d with 1 alarm", mib.AS, mib.Counters.Alarms, validatorAS)
	}
	if mib.Counters.Alarms != uint64(final.Counter("moas_speaker_moas_alarms_total")) {
		t.Errorf("MIB counters (%d alarms) disagree with /metrics (%v)",
			mib.Counters.Alarms, final.Counter("moas_speaker_moas_alarms_total"))
	}

	// The flight recorder captured exactly one forensic bundle for the
	// attack, and /debug/alarms names the forged AS, both MOAS lists,
	// and the offending path.
	var bundles []trace.AlarmBundle
	if err := json.Unmarshal([]byte(h.get(t, "/debug/alarms", "")), &bundles); err != nil {
		t.Fatalf("decode /debug/alarms: %v", err)
	}
	if len(bundles) != 1 {
		t.Fatalf("/debug/alarms bundles = %d, want exactly 1", len(bundles))
	}
	b := bundles[0]
	if b.Prefix != prefixStr || b.Verdict != "conflict" {
		t.Errorf("bundle identity: %+v", b)
	}
	if b.Node != validatorAS || b.FromPeer != forgedAS || b.Origin != forgedAS {
		t.Errorf("bundle endpoints: node=%d fromPeer=%d origin=%d", b.Node, b.FromPeer, b.Origin)
	}
	if want := []uint32{forgedAS, legitAS}; !reflect.DeepEqual(b.Origins, want) {
		t.Errorf("conflicting-origin set = %v, want %v", b.Origins, want)
	}
	if !reflect.DeepEqual(b.Existing, []uint32{legitAS}) || !reflect.DeepEqual(b.Received, []uint32{forgedAS}) {
		t.Errorf("MOAS lists: existing=%v received=%v", b.Existing, b.Received)
	}
	pathHasForged := false
	for _, asn := range b.Path {
		if asn == forgedAS {
			pathHasForged = true
		}
	}
	if !pathHasForged {
		t.Errorf("offending path %v does not name the forged AS", b.Path)
	}
	if b.Span == 0 {
		t.Error("bundle missing the triggering message's span")
	}
	// No ROA source was configured, so ROV answers NotFound and the
	// conflict classifies by MOAS provenance alone.
	if b.Class != "benign-moas" {
		t.Errorf("bundle class = %q, want benign-moas without RPKI data", b.Class)
	}

	// The same bundle is addressable by ID, and the live timeline names
	// the attack's causal chain.
	var byID trace.AlarmBundle
	if err := json.Unmarshal([]byte(h.get(t, "/debug/alarms/0", "")), &byID); err != nil {
		t.Fatalf("decode /debug/alarms/0: %v", err)
	}
	if byID.ID != 0 || byID.Origin != forgedAS {
		t.Errorf("/debug/alarms/0: %+v", byID)
	}
	var timeline []trace.Event
	if err := json.Unmarshal([]byte(h.get(t, "/debug/trace", "")), &timeline); err != nil {
		t.Fatalf("decode /debug/trace: %v", err)
	}
	var sawConflict, sawAlarm bool
	for _, e := range timeline {
		if e.Prefix.String() != prefixStr {
			continue
		}
		sawConflict = sawConflict || e.Kind == trace.KindValidate && e.Detail == trace.DetailConflict
		sawAlarm = sawAlarm || e.Kind == trace.KindAlarm
	}
	if !sawConflict || !sawAlarm {
		t.Errorf("/debug/trace for %s: conflicting validate %v, alarm %v; want both", prefixStr, sawConflict, sawAlarm)
	}

	// pprof serves on the same admin port, and build_info identifies
	// the binary in the scrape the operator already has open.
	if body := h.get(t, "/debug/pprof/cmdline", ""); body == "" {
		t.Error("/debug/pprof/cmdline empty")
	}
	foundBuildInfo := false
	for series := range final {
		if strings.HasPrefix(series, "moas_build_info{") {
			foundBuildInfo = true
		}
	}
	if !foundBuildInfo {
		t.Error("moas_build_info missing from the scrape")
	}

	// --- Detection-latency observatory ---

	// /debug/status serves the complete stage breakdown as JSON with no
	// query or Accept header: the forged announcement crossed every
	// stage of the pipeline, so all five stage histograms have landings.
	var status obs.StatusDoc
	if err := json.Unmarshal([]byte(h.get(t, "/debug/status", "")), &status); err != nil {
		t.Fatalf("decode /debug/status: %v", err)
	}
	stages := make(map[string]obs.StageSnapshot, len(status.Stages))
	for _, st := range status.Stages {
		stages[st.Stage] = st
	}
	for _, name := range []string{"decode", "session", "validate", "rib", "alarm"} {
		st, ok := stages[name]
		if !ok {
			t.Errorf("/debug/status stage %q missing from breakdown %v", name, status.Stages)
			continue
		}
		if st.Count == 0 {
			t.Errorf("/debug/status stage %q has no landings", name)
		}
		if st.Count > 0 && st.MaxNs <= 0 {
			t.Errorf("/debug/status stage %q: count %d but max %dns", name, st.Count, st.MaxNs)
		}
	}
	if status.Ready == nil || !*status.Ready {
		t.Errorf("/debug/status ready = %+v, want true", status.Ready)
	}
	if got := status.AlarmClasses["benign-moas"]; got != 1 {
		t.Errorf("/debug/status alarmClasses[benign-moas] = %v, want 1", got)
	}

	// The alarm stage's exemplar is the span of the message that raised
	// the alarm, and resolves through /debug/alarms?span= to the same
	// forensic bundle the bundle checks above examined.
	var exemplar uint64
	for _, bk := range stages["alarm"].Buckets {
		if bk.ExemplarSpan != 0 {
			exemplar = bk.ExemplarSpan
		}
	}
	if exemplar == 0 {
		t.Fatal("alarm stage retains no exemplar span")
	}
	if exemplar != b.Span {
		t.Errorf("alarm exemplar span = %d, bundle span = %d", exemplar, b.Span)
	}
	var bySpan []trace.AlarmBundle
	if err := json.Unmarshal([]byte(h.get(t, fmt.Sprintf("/debug/alarms?span=%d", exemplar), "")), &bySpan); err != nil {
		t.Fatalf("decode /debug/alarms?span=: %v", err)
	}
	if len(bySpan) != 1 || bySpan[0].Span != exemplar || bySpan[0].Origin != forgedAS {
		t.Errorf("/debug/alarms?span=%d = %+v, want the attack bundle", exemplar, bySpan)
	}

	// Readiness: no RTR cache, no replay → ready out of the box, on its
	// own endpoint, distinct from liveness.
	if body := h.get(t, "/readyz", ""); strings.TrimSpace(body) != "ok" {
		t.Errorf("/readyz body = %q", body)
	}

	// Runtime vitals are read while /debug/status is served.
	if status.Runtime == nil || status.Runtime.Goroutines <= 0 || status.Runtime.HeapAllocBytes == 0 {
		t.Errorf("/debug/status runtime = %+v, want a live sample", status.Runtime)
	}

	// Every family in the text exposition carries # HELP and # TYPE
	// metadata, and every sample belongs to an announced family.
	expo := h.get(t, "/metrics", "")
	helps, types := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(expo, "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "#" {
			switch fields[1] {
			case "HELP":
				helps[fields[2]] = true
			case "TYPE":
				types[fields[2]] = true
			}
		}
	}
	if len(types) == 0 {
		t.Fatal("exposition carries no # TYPE metadata")
	}
	if !reflect.DeepEqual(helps, types) {
		t.Errorf("HELP families %v != TYPE families %v", helps, types)
	}
	for _, line := range strings.Split(expo, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name := line
		if i := strings.IndexAny(name, "{ "); i >= 0 {
			name = name[:i]
		}
		fam := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if trimmed := strings.TrimSuffix(name, suffix); trimmed != name && types[trimmed] {
				fam = trimmed
			}
		}
		if !types[fam] {
			t.Errorf("sample %q has no # TYPE for its family", name)
		}
	}
}

// TestAcceptHeaderKeepsPrometheusText: /metrics has one encoding, so
// an Accept: application/json header still gets the text exposition.
func TestAcceptHeaderKeepsPrometheusText(t *testing.T) {
	h := Boot(t, "10.0.0.0/8", 65001)
	m, err := ParsePrometheus(h.get(t, "/metrics", "application/json"))
	if err != nil {
		t.Fatalf("Accept: application/json did not produce the text exposition: %v", err)
	}
	if got := m.Counter("moas_daemon_peer_up_total"); got != 1 {
		t.Errorf("moas_daemon_peer_up_total = %v, want 1 (the collector peering)", got)
	}
}
