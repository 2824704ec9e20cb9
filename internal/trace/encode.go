// Event wire format: a hand-rolled append-style JSON encoder (the one
// format /debug/trace serves, so streaming a trace out of the admin
// endpoint never allocates per event) and a stdlib-based decoder for
// tools that read traces back.
package trace

import (
	"encoding/json"
	"fmt"
	"strconv"

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
