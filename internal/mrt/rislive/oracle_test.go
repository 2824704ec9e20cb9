package rislive

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// This file keeps the encoding/json decoder that the scanner replaced,
// unchanged but for its names. It is the oracle FuzzDecodeMatchesJSON
// holds Decode equal to.

// jsonEnvelope is the outer RIS-Live JSON framing.
type jsonEnvelope struct {
	Type string      `json:"type"`
	Data jsonMessage `json:"data"`
}

// jsonMessage is the data payload of a ris_message envelope. Fields the
// pipeline does not consume (id, raw, med, …) are left out; unknown
// fields are ignored by encoding/json.
type jsonMessage struct {
	Timestamp     float64            `json:"timestamp"`
	Peer          string             `json:"peer"`
	PeerASN       string             `json:"peer_asn"`
	Type          string             `json:"type"`
	Host          string             `json:"host"`
	Path          []json.RawMessage  `json:"path"`
	Community     [][2]uint32        `json:"community"`
	Origin        string             `json:"origin"`
	Announcements []jsonAnnouncement `json:"announcements"`
	Withdrawals   []string           `json:"withdrawals"`
}

type jsonAnnouncement struct {
	NextHop  string   `json:"next_hop"`
	Prefixes []string `json:"prefixes"`
}

// decodeJSON is Decode as it was written over encoding/json.
func decodeJSON(line []byte) (*Event, error) {
	var env jsonEnvelope
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
	if err := decodeJSONPath(ev, m.Path); err != nil {
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

// decodeJSONPath converts the feed's path array — integers, with nested
// arrays for AS_SETs — into AS_PATH segments: runs of integers become
// SEQUENCE segments, each nested array a SET segment.
func decodeJSONPath(ev *Event, path []json.RawMessage) error {
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
