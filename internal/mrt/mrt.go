// Package mrt reads and writes MRT routing-information archives
// (RFC 6396): the TABLE_DUMP_V2 full-table snapshots and BGP4MP update
// traces published by RouteViews and RIPE RIS collectors. It is the
// internet-scale ingestion layer: real archives hold ~1M-prefix tables
// and millions of daily updates, so the reader decodes path attributes
// and NLRI through the wire codec's scratch Decoder — the session's
// code at 4-octet AS width where the record calls for it — with one
// reusable record buffer and zero steady-state allocations, straight
// into the existing wire/astypes types. The Writer encodes through the
// same codec.
//
// Supported record types:
//
//   - TABLE_DUMP_V2 / PEER_INDEX_TABLE: collector identity and the peer
//     table RIB entries index into.
//   - TABLE_DUMP_V2 / RIB_IPV4_UNICAST: one prefix with its per-peer
//     RIB entries (AS_PATH always 4-byte per RFC 6396 §4.3.4).
//   - BGP4MP and BGP4MP_ET / MESSAGE, MESSAGE_AS4: one raw BGP message
//     exchanged with a peer; UPDATEs are decoded, other types exposed
//     by their wire.MsgType.
//   - BGP4MP and BGP4MP_ET / STATE_CHANGE, STATE_CHANGE_AS4: FSM
//     transitions, exposed as (old, new) state codes.
//
// Everything else (IPv6 RIBs, RIB_GENERIC, geo-peer tables, OSPF, …) is
// skipped and counted, never an error: real archives interleave record
// types freely. Since the repository's AS numbers are the paper-era
// 2-octet kind, 4-byte AS numbers above 65535 are substituted with
// AS_TRANS (23456, RFC 6793) and counted in Stats.
//
// Compressed archives are detected by magic bytes: gzip (RouteViews
// .bz2 archives predate it but RIS uses .gz) and bzip2 both unwrap
// transparently in NewReader.
package mrt

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// MRT record types and subtypes (RFC 6396 §4).
const (
	TypeTableDumpV2 uint16 = 13
	TypeBGP4MP      uint16 = 16
	TypeBGP4MPET    uint16 = 17

	// TABLE_DUMP_V2 subtypes.
	SubPeerIndexTable uint16 = 1
	SubRIBIPv4Unicast uint16 = 2
	SubRIBIPv6Unicast uint16 = 4

	// BGP4MP subtypes.
	SubStateChange    uint16 = 0
	SubMessage        uint16 = 1
	SubMessageAS4     uint16 = 4
	SubStateChangeAS4 uint16 = 5
)

// headerLen is the MRT common header: timestamp(4) type(2) subtype(2)
// length(4).
const headerLen = 12

// MaxRecordLen bounds one record body. RouteViews RIB records with
// hundreds of peer entries reach a few hundred KiB; 16 MiB is far above
// any observed record and keeps a corrupt (or adversarial) length field
// from ballooning the record buffer.
const MaxRecordLen = 1 << 24

// ASTrans is the RFC 6793 2-octet placeholder substituted for 4-byte AS
// numbers that do not fit the paper-era 16-bit ASN space.
const ASTrans astypes.ASN = 23456

// Structural decode failures; every error returned by Reader.Next wraps
// one of these inside a *RecordError carrying the record offset.
var (
	// ErrTruncatedHeader: the stream ended inside a record header.
	ErrTruncatedHeader = errors.New("truncated MRT header")
	// ErrTruncatedBody: the stream ended before the declared length.
	ErrTruncatedBody = errors.New("truncated MRT record body")
	// ErrBadLength: the declared record length exceeds MaxRecordLen.
	ErrBadLength = errors.New("MRT record length out of range")
	// ErrBadRecord: the record body does not parse as its declared
	// type/subtype (truncated fields, bad prefix lengths, zero-length
	// RIB entries, malformed attributes, …).
	ErrBadRecord = errors.New("malformed MRT record")
	// ErrNoPeerIndex: a RIB record arrived before any PEER_INDEX_TABLE.
	ErrNoPeerIndex = errors.New("RIB record before PEER_INDEX_TABLE")
	// ErrBadPeerIndex: a RIB entry references a peer index outside the
	// current peer table.
	ErrBadPeerIndex = errors.New("RIB entry references unknown peer index")
)

// RecordError is a decode failure annotated with the byte offset and
// ordinal of the record it occurred in, so a bad record in a
// multi-gigabyte archive can be located exactly.
type RecordError struct {
	// Offset is the byte offset of the record's header in the
	// (decompressed) stream.
	Offset int64
	// Span is the record's 1-based ordinal.
	Span uint64
	// Type and Subtype are the record's declared type codes (zero when
	// the header itself was unreadable).
	Type, Subtype uint16
	// Err wraps the structural cause (one of the package sentinels).
	Err error
}

func (e *RecordError) Error() string {
	return fmt.Sprintf("mrt: record %d (type %d subtype %d) at offset %d: %v",
		e.Span, e.Type, e.Subtype, e.Offset, e.Err)
}

func (e *RecordError) Unwrap() error { return e.Err }

// IsTerminal reports whether err ends the stream: the record framing is
// lost (truncated header or body, out-of-range length), so calling Next
// again returns the same error. Non-terminal record errors (malformed
// bodies) consume their record fully and Next may be called again to
// skip past them.
func IsTerminal(err error) bool {
	return errors.Is(err, ErrTruncatedHeader) ||
		errors.Is(err, ErrTruncatedBody) ||
		errors.Is(err, ErrBadLength)
}

// RecordKind classifies a decoded record.
type RecordKind uint8

// Record kinds.
const (
	// KindSkipped: a record type/subtype outside the supported set; the
	// body was consumed and counted, nothing was decoded.
	KindSkipped RecordKind = iota
	// KindPeerIndex: a PEER_INDEX_TABLE; the reader's peer table was
	// replaced.
	KindPeerIndex
	// KindRIB: one RIB_IPV4_UNICAST prefix with its entries.
	KindRIB
	// KindMessage: one BGP4MP(_ET) MESSAGE(_AS4).
	KindMessage
	// KindStateChange: one BGP4MP(_ET) STATE_CHANGE(_AS4).
	KindStateChange
)

func (k RecordKind) String() string {
	switch k {
	case KindSkipped:
		return "skipped"
	case KindPeerIndex:
		return "peer-index"
	case KindRIB:
		return "rib"
	case KindMessage:
		return "message"
	case KindStateChange:
		return "state-change"
	default:
		return "unknown"
	}
}

// Peer is one PEER_INDEX_TABLE entry.
type Peer struct {
	// BGPID is the peer's BGP identifier.
	BGPID uint32
	// IP is the peer's IPv4 address (zero for IPv6 peers, which keep
	// their slot in the index but expose no address here).
	IP uint32
	// IPv6 marks peers whose address was 16 bytes.
	IPv6 bool
	// AS is the peer's AS number exactly as encoded (2 or 4 bytes wide
	// on the wire; always full width here).
	AS uint32
}

// ASN returns the peer's AS number in the 16-bit space, substituting
// ASTrans for values that do not fit.
func (p Peer) ASN() astypes.ASN {
	if p.AS > 0xffff {
		return ASTrans
	}
	return astypes.ASN(p.AS)
}

// RIBEntry is one peer's route for a RIB record's prefix.
type RIBEntry struct {
	// PeerIndex indexes the current peer table; PeerAS is the resolved
	// (AS_TRANS-substituted) peer AS.
	PeerIndex uint16
	PeerAS    astypes.ASN
	// Originated is the route's origination time (Unix seconds).
	Originated uint32
	// Origin is the ORIGIN attribute value.
	Origin wire.OriginCode
	// Path is the AS_PATH, 4-byte AS numbers substituted into the
	// 16-bit space. Aliases reader scratch: valid until the next Next.
	Path astypes.ASPath
	// NextHop is the NEXT_HOP attribute (zero when absent).
	NextHop uint32
	// LocalPref is the LOCAL_PREF attribute when HasLocalPref.
	LocalPref    uint32
	HasLocalPref bool
	// Communities aliases reader scratch: valid until the next Next.
	Communities []astypes.Community
}

// Record is one decoded MRT record. Records returned by Reader.Next
// alias the reader's scratch storage and are valid only until the next
// Next call; callers that retain paths or communities must copy them
// (monitor/rib ingestion already does).
type Record struct {
	// Offset is the byte offset of the record header in the
	// (decompressed) stream; Span its 1-based ordinal. Span is the ID
	// replayed announcements carry into alarm forensics.
	Offset int64
	Span   uint64
	// Time is the record timestamp (microsecond-extended for BGP4MP_ET).
	Time time.Time
	// Type and Subtype are the raw MRT codes.
	Type, Subtype uint16
	Kind          RecordKind

	// KindPeerIndex fields.
	CollectorID uint32
	ViewName    string
	Peers       []Peer

	// KindRIB fields.
	Seq     uint32
	Prefix  astypes.Prefix
	Entries []RIBEntry

	// KindMessage / KindStateChange fields.
	PeerAS  astypes.ASN
	LocalAS astypes.ASN
	// MsgType is the embedded BGP message type (KindMessage).
	MsgType wire.MsgType
	// Update is the decoded body for UPDATE messages, nil otherwise.
	// Aliases reader scratch: valid until the next Next.
	Update *wire.Update
	// OldState and NewState are BGP FSM codes (KindStateChange).
	OldState, NewState uint16

	// attrs[i] is the full attribute set of Entries[i], and entry the
	// reader's scratch UPDATE that Updates presents a RIB entry in.
	attrs []wire.PathAttrs
	entry *wire.Update
}

// Updates calls fn with each UPDATE the record carries and the AS of
// the peer it came from: a BGP4MP UPDATE as the peer sent it, and each
// RIB entry as a one-prefix announcement from its peer, with the
// entry's path attributes. Other records carry none. The update
// aliases reader scratch: fn must not retain it.
func (r *Record) Updates(fn func(peer astypes.ASN, u *wire.Update)) {
	switch r.Kind {
	case KindRIB:
		u := r.entry
		u.NLRI[0] = r.Prefix
		for i := range r.Entries {
			u.Attrs = r.attrs[i]
			fn(r.Entries[i].PeerAS, u)
		}
	case KindMessage:
		if r.Update != nil {
			fn(r.PeerAS, r.Update)
		}
	}
}

// Stats counts what a Reader has ingested.
type Stats struct {
	// Records successfully decoded (including skipped ones).
	Records uint64
	// Bytes of MRT framing consumed (headers plus bodies of every fully
	// read record, decompressed) — the replay-progress denominator's
	// numerator side.
	Bytes uint64
	// RIBPrefixes and RIBEntries count RIB_IPV4_UNICAST content.
	RIBPrefixes uint64
	RIBEntries  uint64
	// Updates counts decoded UPDATE messages; Messages all BGP4MP
	// message records (including KEEPALIVE/OPEN/NOTIFICATION).
	Updates  uint64
	Messages uint64
	// StateChanges counts FSM transition records.
	StateChanges uint64
	// Skipped counts unsupported record types/subtypes.
	Skipped uint64
	// AS4Substituted counts 4-byte AS numbers replaced with ASTrans.
	AS4Substituted uint64
}
