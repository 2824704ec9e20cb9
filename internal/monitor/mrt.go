// MRT replay for the off-line monitor: feed an archived table dump and
// update trace through the same session→RIB→alarm path a live feed
// takes, with each ingested announcement carrying its source record's
// span so the flight recorder's forensic bundles point back into the
// archive.

package monitor

import (
	"errors"
	"io"

	"repro/internal/astypes"
	"repro/internal/mrt"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ReplayResult reports what one MRT replay consumed.
type ReplayResult struct {
	// Stats are the reader's counters.
	Stats mrt.Stats
	// Malformed counts records whose bodies failed to decode and were
	// skipped (the framing stayed intact, so the replay continued).
	Malformed uint64
}

// ReplayMRTFunc streams the MRT archive in r through the monitor: every
// UPDATE a record carries (mrt.Record.Updates: a RIB entry as a
// one-prefix announcement) is observed as ObserveUpdateStamp would,
// under the span of the record it came from, and its alarms name the
// peer AS the record gives it. Malformed records are skipped and
// counted; a terminal framing error aborts with the partial result.
//
// The hook, when non-nil, sees every successfully decoded record
// before the monitor ingests it — the seam callers use to mirror the
// replay into a second consumer (the collector RIB, a progress meter).
// The record aliases reader scratch; the hook must not retain it.
func (m *Monitor) ReplayMRTFunc(vantage string, r io.Reader, hook func(*mrt.Record)) (ReplayResult, error) {
	var res ReplayResult
	rd, err := mrt.NewReader(r)
	if err != nil {
		return res, err
	}
	for {
		// Ingest T0 for replay is the instant the record is pulled from
		// the archive, so a replay's stage breakdown mirrors the live
		// feed's (decode = record parse, rib = hook mirror, validate/
		// alarm in the monitor).
		st := m.obs.Start(0)
		rec, err := rd.Next()
		if errors.Is(err, io.EOF) {
			res.Stats = rd.Stats()
			return res, nil
		}
		if err != nil {
			if mrt.IsTerminal(err) {
				res.Stats = rd.Stats()
				return res, err
			}
			res.Malformed++
			continue
		}
		st.Span = rec.Span
		m.obs.Cross(&st, obs.StageDecode)
		if hook != nil {
			hook(rec)
			// The hook is the RIB-mirror seam (collector Inject).
			m.obs.Cross(&st, obs.StageRIB)
		}
		rec.Updates(func(peer astypes.ASN, u *wire.Update) {
			m.ObserveUpdateFrom(vantage, peer, u, &st)
		})
	}
}
