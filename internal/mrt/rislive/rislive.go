// Package rislive ingests a RIS-Live-style streaming JSON feed of BGP
// updates (one JSON envelope per line, as served by RIPE RIS's
// https://ris-live.ripe.net/v1/stream/ endpoint) and turns it into the
// same wire.Update values the rest of the pipeline consumes. It is the
// live counterpart to the package mrt archive reader: a Stage wraps the
// feed in a bounded channel with an explicit backpressure policy and
// reconnects with the shared backoff schedule.
//
// Decode reads a line with a scanner written for the RIS-Live schema
// (scan.go) that accepts exactly what encoding/json would. Unlike the
// archive path this package is not allocation-free — an event owns its
// strings and slices — and it is not deterministic: reconnect jitter
// and wall-clock timestamps are part of its job.
package rislive

import (
	"fmt"
	"strconv"
	"strings"
	"time"
	"unicode/utf8"

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

// Decode parses one line of the feed. It returns (nil, nil) for
// well-formed envelopes the pipeline does not consume (keepalives,
// RIS state messages, OPEN/NOTIFICATION mirrors, pure-IPv6 updates);
// an error only for malformed input. The event owns its memory: line
// may be reused as soon as Decode returns.
func Decode(line []byte) (*Event, error) {
	var env envelope
	if err := parseEnvelope(string(line), &env); err != nil {
		return nil, fmt.Errorf("rislive: parse envelope: %w", err)
	}
	if env.Type != "ris_message" || env.Data.Type != "UPDATE" {
		return nil, nil
	}
	m := &env.Data
	// Peer and Host get one allocation of their own, so that a consumer
	// keeping them does not pin the copy of the line they came from.
	peerHost := m.Peer + m.Host
	ev := &Event{
		Time: time.Unix(int64(m.Timestamp), int64((m.Timestamp-float64(int64(m.Timestamp)))*1e9)).UTC(),
		Peer: peerHost[:len(m.Peer)],
		Host: peerHost[len(m.Peer):],
	}
	if m.PeerASN != "" {
		v, err := strconv.ParseUint(m.PeerASN, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("rislive: peer_asn %q: %w", m.PeerASN, err)
		}
		ev.PeerASN = ev.mapASN(uint32(v))
	}
	if m.PathErr != nil {
		return nil, m.PathErr
	}
	for _, seg := range m.Path {
		for i, a := range seg.ASNs {
			seg.ASNs[i] = ev.mapASN(uint32(a))
		}
	}
	ev.Update.Attrs.ASPath.Segments = m.Path
	if len(m.Community) > 0 {
		ev.Update.Attrs.Communities = m.Community
	}
	if m.Origin != "" {
		origin, ok := parseOrigin(m.Origin)
		if !ok {
			return nil, fmt.Errorf("rislive: origin %q", m.Origin)
		}
		ev.Update.Attrs.HasOrigin, ev.Update.Attrs.Origin = true, origin
	}
	announced := 0
	for _, a := range m.Announcements {
		announced += len(a.Prefixes)
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
			ev.Update.NLRI = appendSized(ev.Update.NLRI, pfx, announced)
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
		ev.Update.Withdrawn = appendSized(ev.Update.Withdrawn, pfx, len(m.Withdrawals))
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

// parseOrigin reads an ORIGIN spelled in any case. It matches what
// strings.ToUpper would map to IGP, EGP or INCOMPLETE — which takes in
// non-ASCII runes such as 'ı' — but allocates only for non-ASCII input.
func parseOrigin(s string) (wire.OriginCode, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			s = strings.ToUpper(s)
			break
		}
	}
	switch {
	case strings.EqualFold(s, "IGP"):
		return wire.OriginIGP, true
	case strings.EqualFold(s, "EGP"):
		return wire.OriginEGP, true
	case strings.EqualFold(s, "INCOMPLETE"):
		return wire.OriginIncomplete, true
	}
	return 0, false
}

// appendSized appends p to ps, giving a nil ps room for n prefixes
// first, so that a list stays nil until it has a member.
func appendSized(ps []astypes.Prefix, p astypes.Prefix, n int) []astypes.Prefix {
	if ps == nil {
		ps = make([]astypes.Prefix, 0, n)
	}
	return append(ps, p)
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
	n, okLen := prefixLen(lenStr)
	if !okLen {
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

// prefixLen parses a prefix length as netip does: one or two digits,
// no sign, no leading zero, at most 32.
func prefixLen(s string) (int, bool) {
	if len(s) == 0 || len(s) > 2 || (len(s) == 2 && s[0] == '0') {
		return 0, false
	}
	n := 0
	for i := 0; i < len(s); i++ {
		if !isDigit(s[i]) {
			return 0, false
		}
		n = n*10 + int(s[i]-'0')
	}
	return n, n <= 32
}

// parseIPv4 parses a dotted-quad address. As with netip, an octet has
// no leading zero.
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
		if c < '0' || c > '9' || (digits == 1 && val == 0) {
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
