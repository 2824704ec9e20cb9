package collector

import (
	"errors"
	"io"

	"repro/internal/astypes"
	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ConsumeRISLive is the RIS-Live consumer loop. For each event it
// crosses the session stage (the time the event waited in the
// channel), mirrors the update into the collector's RIB, crosses the
// RIB stage, and has Config.Monitor observe the update under the
// vantage "ris:<host>". Stage crossings land in the collector's
// Config.Obs. after, when non-nil, runs once per event once the
// monitor has observed it. ConsumeRISLive returns when events is
// closed.
func (c *Collector) ConsumeRISLive(events <-chan *rislive.Event, after func(*rislive.Event)) {
	vantages := make(map[string]string) // host -> "ris:<host>"
	for ev := range events {
		c.cfg.Obs.Cross(&ev.Stamp, obs.StageSession)
		vantage, ok := vantages[ev.Host]
		if !ok {
			vantage = "ris:" + ev.Host
			vantages[ev.Host] = vantage
		}
		c.ingest(vantage, ev.PeerASN, &ev.Update, &ev.Stamp)
		if after != nil {
			after(ev)
		}
	}
}

// ReplayMRT streams the MRT archive in r through Config.Monitor under
// vantage (Monitor.ReplayMRTFunc), mirroring each record into the
// collector's RIB before the monitor observes it: a RIB entry as a
// one-prefix announcement from its peer, an UPDATE as its peer sent
// it. hook, when non-nil, runs once per record after the mirror, and
// must not retain the record (it aliases reader scratch). ReplayMRT
// needs Config.Monitor.
func (c *Collector) ReplayMRT(vantage string, r io.Reader, hook func(*mrt.Record)) (monitor.ReplayResult, error) {
	if c.cfg.Monitor == nil {
		return monitor.ReplayResult{}, errors.New("collector: ReplayMRT needs Config.Monitor")
	}
	// mirror keeps only a route's path and communities, packed into a
	// string of its own, so one scratch update serves every RIB entry.
	entry := wire.Update{NLRI: make([]astypes.Prefix, 1)}
	return c.cfg.Monitor.ReplayMRTFunc(vantage, r, func(rec *mrt.Record) {
		switch rec.Kind {
		case mrt.KindRIB:
			entry.NLRI[0] = rec.Prefix
			for i := range rec.Entries {
				e := &rec.Entries[i]
				entry.Attrs.ASPath = e.Path
				entry.Attrs.Communities = e.Communities
				c.mirror(e.PeerAS, &entry)
			}
		case mrt.KindMessage:
			if rec.Update != nil {
				c.mirror(rec.PeerAS, rec.Update)
			}
		}
		if hook != nil {
			hook(rec)
		}
	})
}
