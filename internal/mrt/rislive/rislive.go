// Package rislive ingests a RIS-Live-style streaming JSON feed of BGP
// updates (one JSON envelope per line, as served by RIPE RIS's
// https://ris-live.ripe.net/v1/stream/ endpoint) and turns it into the
// same wire.Update values the rest of the pipeline consumes. It is the
// live counterpart to the package mrt archive reader: a Stage wraps the
// feed in a bounded channel with an explicit backpressure policy and
// reconnects with the shared backoff schedule.
//
// Unlike the archive path this package is not allocation-free —
// encoding/json dominates — and it is not deterministic: reconnect
// jitter and wall-clock timestamps are part of its job.
package rislive

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/astypes"
	"repro/internal/obs"
	"repro/internal/wire"
)

// ASTrans is the RFC 6793 substitute for AS numbers above the 16-bit
// space (mirrors mrt.ASTrans; kept local to avoid the import for one
// constant).
const ASTrans astypes.ASN = 23456

// Event is one decoded UPDATE from the feed. Unlike mrt.Record it owns
// all of its memory: events cross a channel to another goroutine.
type Event struct {
	// Time is the feed's message timestamp.
	Time time.Time
	// Peer is the peer's address as the feed printed it; PeerASN the
	// peer's AS number narrowed into the 16-bit space.
	Peer    string
	PeerASN astypes.ASN
	// Host is the collector that heard the message.
	Host string
	// Span is the event's 1-based ordinal in the stream, assigned by
	// the Stage; zero for events decoded outside one.
	Span uint64
	// Stamp is the event's stage-timing context (ingest instant plus
	// span), set by a Stage configured with an obs recorder; consumers
	// cross the later pipeline stages against it. Zero value is inert.
	Stamp obs.Stamp
	// Update carries the announcement/withdrawal content.
	Update wire.Update
	// Substituted counts AS numbers narrowed to ASTrans in this event;
	// SkippedPrefixes counts non-IPv4 prefixes dropped from it.
	Substituted     int
	SkippedPrefixes int
}

// envelope is the outer RIS-Live JSON framing.
type envelope struct {
	Type string  `json:"type"`
	Data message `json:"data"`
}

// message is the data payload of a ris_message envelope. Fields the
// pipeline does not consume (id, raw, med, …) are left out; unknown
// fields are ignored by encoding/json.
type message struct {
	Timestamp     float64           `json:"timestamp"`
	Peer          string            `json:"peer"`
	PeerASN       string            `json:"peer_asn"`
	Type          string            `json:"type"`
	Host          string            `json:"host"`
	Path          []json.RawMessage `json:"path"`
	Community     [][2]uint32       `json:"community"`
	Origin        string            `json:"origin"`
	Announcements []announcement    `json:"announcements"`
	Withdrawals   []string          `json:"withdrawals"`
}

type announcement struct {
	NextHop  string   `json:"next_hop"`
	Prefixes []string `json:"prefixes"`
}

// Decode parses one line of the feed. It returns (nil, nil) for
// well-formed envelopes the pipeline does not consume (keepalives,
// RIS state messages, OPEN/NOTIFICATION mirrors, pure-IPv6 updates);
// an error only for malformed input.
func Decode(line []byte) (*Event, error) {
	var env envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return nil, fmt.Errorf("rislive: parse envelope: %w", err)
	}
	if env.Type != "ris_message" || env.Data.Type != "UPDATE" {
		return nil, nil
	}
	m := &env.Data
	ev := &Event{
		Time: time.Unix(int64(m.Timestamp), int64((m.Timestamp-float64(int64(m.Timestamp)))*1e9)).UTC(),
		Peer: m.Peer,
		Host: m.Host,
	}
	if m.PeerASN != "" {
		v, err := strconv.ParseUint(m.PeerASN, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("rislive: peer_asn %q: %w", m.PeerASN, err)
		}
		ev.PeerASN = ev.mapASN(uint32(v))
	}
	if err := ev.decodePath(m.Path); err != nil {
		return nil, err
	}
	for _, c := range m.Community {
		ev.Update.Attrs.Communities = append(ev.Update.Attrs.Communities,
			astypes.NewCommunity(astypes.ASN(c[0]&0xffff), uint16(c[1]&0xffff)))
	}
	switch strings.ToUpper(m.Origin) {
	case "IGP":
		ev.Update.Attrs.HasOrigin, ev.Update.Attrs.Origin = true, wire.OriginIGP
	case "EGP":
		ev.Update.Attrs.HasOrigin, ev.Update.Attrs.Origin = true, wire.OriginEGP
	case "INCOMPLETE":
		ev.Update.Attrs.HasOrigin, ev.Update.Attrs.Origin = true, wire.OriginIncomplete
	case "":
	default:
		return nil, fmt.Errorf("rislive: origin %q", m.Origin)
	}
	for _, a := range m.Announcements {
		if !ev.Update.Attrs.HasNextHop {
			if hop, ok := parseIPv4(a.NextHop); ok {
				ev.Update.Attrs.HasNextHop = true
				ev.Update.Attrs.NextHop = hop
			}
		}
		for _, p := range a.Prefixes {
			pfx, ok, err := parsePrefix(p)
			if err != nil {
				return nil, err
			}
			if !ok {
				ev.SkippedPrefixes++
				continue
			}
			ev.Update.NLRI = append(ev.Update.NLRI, pfx)
		}
	}
	for _, p := range m.Withdrawals {
		pfx, ok, err := parsePrefix(p)
		if err != nil {
			return nil, err
		}
		if !ok {
			ev.SkippedPrefixes++
			continue
		}
		ev.Update.Withdrawn = append(ev.Update.Withdrawn, pfx)
	}
	if len(ev.Update.NLRI) == 0 && len(ev.Update.Withdrawn) == 0 {
		// Everything in the update was IPv6; nothing to feed the
		// IPv4-prefix monitor.
		return nil, nil
	}
	if len(ev.Update.NLRI) > 0 && !ev.Update.Attrs.HasOrigin {
		// RIS omits origin on rare incomplete messages; default rather
		// than drop the announcement.
		ev.Update.Attrs.HasOrigin, ev.Update.Attrs.Origin = true, wire.OriginIncomplete
	}
	return ev, nil
}

// mapASN narrows a 32-bit AS number, counting substitutions on the
// event.
func (ev *Event) mapASN(v uint32) astypes.ASN {
	if v > 0xffff {
		ev.Substituted++
		return ASTrans
	}
	return astypes.ASN(v)
}

// decodePath converts the feed's path array — integers, with nested
// arrays for AS_SETs — into AS_PATH segments: runs of integers become
// SEQUENCE segments, each nested array a SET segment.
func (ev *Event) decodePath(path []json.RawMessage) error {
	var run []astypes.ASN
	flush := func() {
		if len(run) > 0 {
			ev.Update.Attrs.ASPath.Segments = append(ev.Update.Attrs.ASPath.Segments,
				astypes.Segment{Type: astypes.SegSequence, ASNs: run})
			run = nil
		}
	}
	for _, raw := range path {
		trimmed := strings.TrimSpace(string(raw))
		if strings.HasPrefix(trimmed, "[") {
			var set []uint32
			if err := json.Unmarshal(raw, &set); err != nil {
				return fmt.Errorf("rislive: path AS_SET: %w", err)
			}
			flush()
			asns := make([]astypes.ASN, 0, len(set))
			for _, v := range set {
				asns = append(asns, ev.mapASN(v))
			}
			ev.Update.Attrs.ASPath.Segments = append(ev.Update.Attrs.ASPath.Segments,
				astypes.Segment{Type: astypes.SegSet, ASNs: asns})
			continue
		}
		var v uint32
		if err := json.Unmarshal(raw, &v); err != nil {
			return fmt.Errorf("rislive: path element %s: %w", trimmed, err)
		}
		run = append(run, ev.mapASN(v))
	}
	flush()
	return nil
}

// parsePrefix parses "a.b.c.d/len". IPv6 prefixes return ok == false
// (skipped, not an error); malformed input errors.
func parsePrefix(s string) (p astypes.Prefix, ok bool, err error) {
	ipStr, lenStr, found := strings.Cut(s, "/")
	if !found {
		return p, false, fmt.Errorf("rislive: prefix %q has no length", s)
	}
	if strings.Contains(ipStr, ":") {
		return p, false, nil // IPv6
	}
	addr, okIP := parseIPv4(ipStr)
	if !okIP {
		return p, false, fmt.Errorf("rislive: prefix %q has a bad address", s)
	}
	n, err := strconv.Atoi(lenStr)
	if err != nil || n < 0 || n > 32 {
		return p, false, fmt.Errorf("rislive: prefix %q has a bad length", s)
	}
	if n > 0 {
		addr &= ^uint32(0) << (32 - n)
	} else {
		addr = 0
	}
	pfx, err := astypes.NewPrefix(addr, uint8(n))
	if err != nil {
		return p, false, err
	}
	return pfx, true, nil
}

// parseIPv4 parses a dotted-quad address.
func parseIPv4(s string) (uint32, bool) {
	var addr uint32
	part := 0
	val, digits := 0, 0
	for i := 0; i <= len(s); i++ {
		if i == len(s) || s[i] == '.' {
			if digits == 0 || val > 255 || part > 3 {
				return 0, false
			}
			addr = addr<<8 | uint32(val)
			part++
			val, digits = 0, 0
			continue
		}
		c := s[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		val = val*10 + int(c-'0')
		digits++
		if digits > 3 {
			return 0, false
		}
	}
	if part != 4 {
		return 0, false
	}
	return addr, true
}
