// Event wire formats: a hand-rolled append-style JSON encoder (the one
// format /debug/trace serves, so streaming a trace out of the admin
// endpoint never allocates per event), a stdlib-based decoder for tools
// that read traces back, and the fixed-layout text rendering of the
// simulator's -trace timelines (deterministic byte-for-byte, which the
// moas-sim reproducibility test relies on).
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"repro/internal/astypes"
)

// AppendEventJSON appends e as one JSON object to dst and returns the
// extended buffer. With sufficient capacity in dst it does not
// allocate. The format round-trips through DecodeEventJSON.
func AppendEventJSON(dst []byte, e *Event) []byte {
	dst = append(dst, `{"seq":`...)
	dst = strconv.AppendUint(dst, e.Seq, 10)
	dst = append(dst, `,"ns":`...)
	dst = strconv.AppendInt(dst, e.Nanos, 10)
	dst = append(dst, `,"vns":`...)
	dst = strconv.AppendInt(dst, e.VNanos, 10)
	dst = append(dst, `,"span":`...)
	dst = strconv.AppendUint(dst, e.Span, 10)
	dst = append(dst, `,"kind":"`...)
	dst = append(dst, e.Kind.String()...)
	dst = append(dst, `","detail":"`...)
	dst = append(dst, e.Detail.String()...)
	dst = append(dst, `","node":`...)
	dst = strconv.AppendUint(dst, uint64(e.Node), 10)
	dst = append(dst, `,"peer":`...)
	dst = strconv.AppendUint(dst, uint64(e.Peer), 10)
	dst = append(dst, `,"origin":`...)
	dst = strconv.AppendUint(dst, uint64(e.Origin), 10)
	dst = append(dst, `,"prefix":"`...)
	dst = appendPrefix(dst, e.Prefix)
	dst = append(dst, `","aux":`...)
	dst = strconv.AppendUint(dst, uint64(e.Aux), 10)
	dst = append(dst, '}')
	return dst
}

// appendPrefix renders a.b.c.d/len without the fmt machinery (and so
// without allocating).
func appendPrefix(dst []byte, p astypes.Prefix) []byte {
	dst = strconv.AppendUint(dst, uint64(p.Addr>>24), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(p.Addr>>16&0xff), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(p.Addr>>8&0xff), 10)
	dst = append(dst, '.')
	dst = strconv.AppendUint(dst, uint64(p.Addr&0xff), 10)
	dst = append(dst, '/')
	dst = strconv.AppendUint(dst, uint64(p.Len), 10)
	return dst
}

var kindNames = map[string]Kind{
	"recv":     KindRecv,
	"validate": KindValidate,
	"rib":      KindRIB,
	"export":   KindExport,
	"alarm":    KindAlarm,
}

var detailNames = map[string]Detail{
	"":                  DetailNone,
	"consistent":        DetailConsistent,
	"conflict":          DetailConflict,
	"origin-not-listed": DetailOriginNotListed,
	"rejected":          DetailRejected,
	"installed":         DetailInstalled,
	"replaced":          DetailReplaced,
	"withdrawn":         DetailWithdrawn,
	"advertise":         DetailAdvertise,
	"withdrawal":        DetailWithdrawal,
}

// DecodeEventJSON parses one event in the AppendEventJSON format.
func DecodeEventJSON(data []byte) (Event, error) {
	var raw struct {
		Seq    uint64 `json:"seq"`
		Ns     int64  `json:"ns"`
		Vns    int64  `json:"vns"`
		Span   uint64 `json:"span"`
		Kind   string `json:"kind"`
		Detail string `json:"detail"`
		Node   uint32 `json:"node"`
		Peer   uint32 `json:"peer"`
		Origin uint32 `json:"origin"`
		Prefix string `json:"prefix"`
		Aux    uint32 `json:"aux"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return Event{}, fmt.Errorf("trace: decode event: %w", err)
	}
	kind, ok := kindNames[raw.Kind]
	if !ok {
		return Event{}, fmt.Errorf("trace: decode event: unknown kind %q", raw.Kind)
	}
	detail, ok := detailNames[raw.Detail]
	if !ok {
		return Event{}, fmt.Errorf("trace: decode event: unknown detail %q", raw.Detail)
	}
	e := Event{
		Seq:    raw.Seq,
		Nanos:  raw.Ns,
		VNanos: raw.Vns,
		Span:   raw.Span,
		Kind:   kind,
		Detail: detail,
		Node:   astypes.ASN(raw.Node),
		Peer:   astypes.ASN(raw.Peer),
		Origin: astypes.ASN(raw.Origin),
		Aux:    raw.Aux,
	}
	if raw.Prefix != "" {
		p, err := astypes.ParsePrefix(raw.Prefix)
		if err != nil {
			return Event{}, fmt.Errorf("trace: decode event: %w", err)
		}
		e.Prefix = p
	}
	return e, nil
}

// MarshalJSON renders the event via AppendEventJSON, so bundles and
// event lists marshalled with encoding/json use the same format the
// zero-allocation encoder emits.
func (e Event) MarshalJSON() ([]byte, error) {
	return AppendEventJSON(nil, &e), nil
}

// UnmarshalJSON parses the AppendEventJSON format.
func (e *Event) UnmarshalJSON(data []byte) error {
	ev, err := DecodeEventJSON(data)
	if err != nil {
		return err
	}
	*e = ev
	return nil
}

// AppendEventText appends the fixed one-line text rendering of e:
//
//	[     45ms] span=3    AS23    recv      131.179.0.0/16     peer=AS7     origin=AS23    aux=1 withdrawal
//
// The timestamp column is the virtual time when no wall time is set
// (simulator traces), else the wall clock in RFC3339Nano. The layout is
// deterministic: identical events render to identical bytes.
func AppendEventText(dst []byte, e *Event) []byte {
	if e.Nanos != 0 {
		dst = append(dst, '[')
		dst = time.Unix(0, e.Nanos).UTC().AppendFormat(dst, time.RFC3339Nano)
		dst = append(dst, `] `...)
	} else {
		dst = fmt.Appendf(dst, "[%9s] ", time.Duration(e.VNanos))
	}
	dst = fmt.Appendf(dst, "span=%-4d AS%-5d %-9s %-18s peer=AS%-5d origin=AS%-5d aux=%d",
		e.Span, uint32(e.Node), e.Kind, e.Prefix, uint32(e.Peer), uint32(e.Origin), e.Aux)
	if e.Detail != DetailNone {
		dst = append(dst, ' ')
		dst = append(dst, e.Detail.String()...)
	}
	dst = append(dst, '\n')
	return dst
}

// AppendBundleText appends a multi-line human-readable rendering of an
// alarm bundle (without its timeline): the forensic summary an operator
// reads first.
func AppendBundleText(dst []byte, b *AlarmBundle) []byte {
	dst = fmt.Appendf(dst, "alarm #%d: MOAS %s for %s at AS%d\n", b.ID, b.Verdict, b.Prefix, b.Node)
	if b.Class != "" {
		dst = fmt.Appendf(dst, "  class:    %s\n", b.Class)
	}
	if b.Nanos != 0 {
		dst = fmt.Appendf(dst, "  at:       %s\n", time.Unix(0, b.Nanos).UTC().Format(time.RFC3339Nano))
	} else if b.VNanos != 0 {
		dst = fmt.Appendf(dst, "  at:       %s (virtual)\n", time.Duration(b.VNanos))
	}
	dst = fmt.Appendf(dst, "  received: origin AS%d from peer AS%d (span %d)\n", b.Origin, b.FromPeer, b.Span)
	dst = fmt.Appendf(dst, "  lists:    existing %s vs received %s\n", u16Set(b.Existing), u16Set(b.Received))
	dst = fmt.Appendf(dst, "  path:     %s\n", u16Seq(b.Path))
	dst = fmt.Appendf(dst, "  origins:  %s\n", u16Set(b.Origins))
	if b.Note != "" {
		dst = fmt.Appendf(dst, "  note:     %s\n", b.Note)
	}
	return dst
}

// WriteAlarmTable renders bundles as an aligned operator table: one
// row per alarm with the detecting AS, the offending announcement's
// provenance and the competing MOAS lists, followed by each bundle's
// AppendBundleText forensics.
func WriteAlarmTable(w io.Writer, bundles []AlarmBundle) error {
	if len(bundles) == 0 {
		_, err := fmt.Fprintln(w, "no MOAS alarms captured")
		return err
	}
	fmt.Fprintf(w, "%-3s %-11s %-18s %-8s %-16s %-7s %-7s %-22s %s\n",
		"id", "virtual", "prefix", "verdict", "class", "node", "origin", "lists (exist/recv)", "path")
	for i := range bundles {
		b := &bundles[i]
		class := b.Class
		if class == "" {
			class = "-"
		}
		if _, err := fmt.Fprintf(w, "%-3d %-11s %-18s %-8s %-16s AS%-5d AS%-5d %-22s %v\n",
			b.ID, fmt.Sprintf("%dms", b.VNanos/1e6), b.Prefix, b.Verdict, class, b.Node, b.Origin,
			fmt.Sprintf("%v/%v", b.Existing, b.Received), b.Path); err != nil {
			return err
		}
	}
	fmt.Fprintln(w)
	var buf []byte
	for i := range bundles {
		buf = AppendBundleText(buf[:0], &bundles[i])
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// u16Set renders an AS set as {1, 2}; u16Seq renders a path as 1 2 3.
func u16Set(asns []uint32) string {
	out := "{"
	for i, a := range asns {
		if i > 0 {
			out += ", "
		}
		out += strconv.Itoa(int(a))
	}
	return out + "}"
}

func u16Seq(asns []uint32) string {
	out := ""
	for i, a := range asns {
		if i > 0 {
			out += " "
		}
		out += strconv.Itoa(int(a))
	}
	return out
}
