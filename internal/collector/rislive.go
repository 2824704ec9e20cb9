package collector

import (
	"repro/internal/monitor"
	"repro/internal/mrt/rislive"
	"repro/internal/obs"
)

// ConsumeRISLive is the RIS-Live consumer loop. For each event it
// crosses the session stage (the time the event waited in the
// channel), injects the update into the collector's RIB, crosses the
// RIB stage, and has mon observe the update under the vantage
// "ris:<host>". Stage crossings land in the collector's Config.Obs.
// after, when non-nil, runs once per event once mon has observed it.
// ConsumeRISLive returns when events is closed.
func (c *Collector) ConsumeRISLive(events <-chan *rislive.Event, mon *monitor.Monitor, after func(*rislive.Event)) {
	for ev := range events {
		c.cfg.Obs.Cross(&ev.Stamp, obs.StageSession)
		c.Inject(ev.PeerASN, &ev.Update)
		c.cfg.Obs.Cross(&ev.Stamp, obs.StageRIB)
		mon.ObserveUpdateStamp("ris:"+ev.Host, &ev.Update, &ev.Stamp)
		if after != nil {
			after(ev)
		}
	}
}
