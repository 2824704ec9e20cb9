package collector

import (
	"errors"
	"io"

	"repro/internal/monitor"
	"repro/internal/mrt"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
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
// vantage (Monitor.ReplayMRTFunc), mirroring each UPDATE a record
// carries (mrt.Record.Updates) into the collector's RIB before the
// monitor observes it. hook, when non-nil, runs once per record after
// the mirror, and must not retain the record (it aliases reader
// scratch). ReplayMRT needs Config.Monitor.
func (c *Collector) ReplayMRT(vantage string, r io.Reader, hook func(*mrt.Record)) (monitor.ReplayResult, error) {
	if c.cfg.Monitor == nil {
		return monitor.ReplayResult{}, errors.New("collector: ReplayMRT needs Config.Monitor")
	}
	return c.cfg.Monitor.ReplayMRTFunc(vantage, r, func(rec *mrt.Record) {
		rec.Updates(c.mirror)
		if hook != nil {
			hook(rec)
		}
	})
}
