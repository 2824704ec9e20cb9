package mrt

import (
	"bufio"
	"compress/bzip2"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"repro/internal/astypes"
	"repro/internal/wire"
)

// Reader decodes MRT records from a stream, transparently unwrapping
// gzip and bzip2 framing. It follows the wire-codec scratch idiom: one
// record buffer plus flat arenas (AS numbers, segments, communities,
// RIB entries) owned by the Reader and reused on every Next, so decoding
// an arbitrarily long archive performs zero steady-state allocations.
// The returned Record aliases that scratch and is valid only until the
// next Next call. Not safe for concurrent use.
type Reader struct {
	r      io.Reader
	off    int64 // offset of the current record's header
	pos    int64 // offset of the next record's header
	span   uint64
	sticky error // terminal stream error (framing lost); returned forever

	hdr [headerLen]byte
	buf []byte // record body scratch

	// Current peer table (replaced by each PEER_INDEX_TABLE).
	havePeers   bool
	peers       []Peer
	viewName    string
	collectorID uint32

	rec Record
	upd wire.Update
	scr attrScratch

	// Flat decode arenas. During body parsing only indices into these
	// are recorded (segRange, entryMeta), so arena growth mid-record
	// cannot strand earlier slices; the final Record slices are carved
	// once the record is fully parsed and the arenas stop moving.
	asns    []astypes.ASN
	segMeta []segRange
	segs    []astypes.Segment
	comms   []astypes.Community
	entMeta []entryMeta
	entries []RIBEntry

	stats Stats
}

// segRange is one AS_PATH segment as an index range into the asns arena.
type segRange struct {
	typ    astypes.SegmentType
	lo, hi int32
}

// entryMeta is one RIB entry parsed down to arena indices.
type entryMeta struct {
	peerIndex  uint16
	originated uint32
	s          attrScratch
}

// attrScratch is the decoded attribute set of one RIB entry or UPDATE,
// with path segments and communities as arena index ranges.
type attrScratch struct {
	hasOrigin       bool
	origin          wire.OriginCode
	segLo, segHi    int32 // segMeta index range
	commLo, commHi  int32 // comms arena index range
	hasNextHop      bool
	nextHop         uint32
	hasLocalPref    bool
	localPref       uint32
	atomicAggregate bool
	hasAggregator   bool
	aggregatorAS    astypes.ASN
	aggregatorID    uint32
}

// Gzip and bzip2 magic bytes (the only compressions collector archives
// use in practice).
var (
	gzipMagic  = []byte{0x1f, 0x8b}
	bzip2Magic = []byte{'B', 'Z', 'h'}
)

// NewReader returns a Reader on r, sniffing the first bytes for gzip or
// bzip2 framing and unwrapping it when present. Offsets reported in
// errors are into the decompressed stream.
func NewReader(r io.Reader) (*Reader, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	magic, err := br.Peek(3)
	if err != nil && !errors.Is(err, io.EOF) {
		return nil, fmt.Errorf("mrt: sniff stream: %w", err)
	}
	var src io.Reader = br
	switch {
	case len(magic) >= 2 && magic[0] == gzipMagic[0] && magic[1] == gzipMagic[1]:
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("mrt: open gzip stream: %w", err)
		}
		src = gz
	case len(magic) >= 3 && magic[0] == bzip2Magic[0] && magic[1] == bzip2Magic[1] && magic[2] == bzip2Magic[2]:
		src = bzip2.NewReader(br)
	}
	return &Reader{r: src}, nil
}

// Stats returns ingest counters up to the most recent Next.
func (rd *Reader) Stats() Stats { return rd.stats }

// Peers returns the current peer table (from the most recent
// PEER_INDEX_TABLE); the slice is owned by the Reader.
func (rd *Reader) Peers() []Peer { return rd.peers }

// fail records a terminal stream error: the record framing is lost, so
// every subsequent Next returns the same error instead of resyncing on
// garbage.
func (rd *Reader) fail(typ, sub uint16, cause error) error {
	rd.sticky = &RecordError{
		Offset:  rd.off,
		Span:    rd.span + 1,
		Type:    typ,
		Subtype: sub,
		Err:     cause,
	}
	return rd.sticky
}

// wrap annotates a body-level decode error with the current record's
// position. Unlike fail, the framing is intact (the body was fully
// consumed), so the caller may keep calling Next to skip past the bad
// record.
func (rd *Reader) wrap(err error) error {
	return &RecordError{
		Offset:  rd.rec.Offset,
		Span:    rd.rec.Span,
		Type:    rd.rec.Type,
		Subtype: rd.rec.Subtype,
		Err:     err,
	}
}

// Next decodes and returns the next record. It returns io.EOF at a
// clean end of stream. A *RecordError wrapping ErrTruncatedHeader,
// ErrTruncatedBody or ErrBadLength is terminal (the framing is lost);
// a *RecordError wrapping the other sentinels reports a malformed body
// whose bytes were fully consumed, so Next may be called again to skip
// past it. The returned Record aliases the Reader's scratch and is
// valid only until the next call.
func (rd *Reader) Next() (*Record, error) {
	if rd.sticky != nil {
		return nil, rd.sticky
	}
	rd.off = rd.pos
	if n, err := io.ReadFull(rd.r, rd.hdr[:]); err != nil {
		if n == 0 && errors.Is(err, io.EOF) {
			rd.sticky = io.EOF
			return nil, io.EOF
		}
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			err = ErrTruncatedHeader
		}
		return nil, rd.fail(0, 0, err)
	}
	ts := binary.BigEndian.Uint32(rd.hdr[0:4])
	typ := binary.BigEndian.Uint16(rd.hdr[4:6])
	sub := binary.BigEndian.Uint16(rd.hdr[6:8])
	length := binary.BigEndian.Uint32(rd.hdr[8:12])
	if length > MaxRecordLen {
		return nil, rd.fail(typ, sub, ErrBadLength)
	}
	if cap(rd.buf) < int(length) {
		// Record buffer growth, amortized to zero once it reaches the archive's largest record.
		rd.buf = make([]byte, length)
	}
	body := rd.buf[:length]
	if _, err := io.ReadFull(rd.r, body); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) || errors.Is(err, io.EOF) {
			err = ErrTruncatedBody
		}
		return nil, rd.fail(typ, sub, err)
	}
	rd.pos += headerLen + int64(length)
	rd.stats.Bytes += headerLen + uint64(length)
	rd.span++

	// BGP4MP_ET extends the timestamp with microseconds at the start of
	// the body (RFC 6396 §3).
	var micro uint32
	if typ == TypeBGP4MPET {
		if len(body) < 4 {
			return nil, rd.wrapHeaderless(typ, sub, ErrBadRecord)
		}
		micro = binary.BigEndian.Uint32(body[0:4])
		body = body[4:]
	}

	// Reset the record and the decode arenas; indices recorded while
	// parsing refer to the post-reset arenas.
	rd.asns = rd.asns[:0]
	rd.segMeta = rd.segMeta[:0]
	rd.comms = rd.comms[:0]
	rd.entMeta = rd.entMeta[:0]
	rd.rec = Record{
		Offset:  rd.off,
		Span:    rd.span,
		Time:    time.Unix(int64(ts), int64(micro)*1000).UTC(),
		Type:    typ,
		Subtype: sub,
	}

	var err error
	switch {
	case typ == TypeTableDumpV2 && sub == SubPeerIndexTable:
		err = rd.decodePeerIndex(body)
	case typ == TypeTableDumpV2 && sub == SubRIBIPv4Unicast:
		err = rd.decodeRIB(body)
	case (typ == TypeBGP4MP || typ == TypeBGP4MPET) && (sub == SubMessage || sub == SubMessageAS4):
		err = rd.decodeMessage(body, sub == SubMessageAS4)
	case (typ == TypeBGP4MP || typ == TypeBGP4MPET) && (sub == SubStateChange || sub == SubStateChangeAS4):
		err = rd.decodeStateChange(body, sub == SubStateChangeAS4)
	default:
		rd.rec.Kind = KindSkipped
		rd.stats.Skipped++
	}
	if err != nil {
		return nil, rd.wrap(err)
	}
	rd.stats.Records++
	return &rd.rec, nil
}

// wrapHeaderless is wrap for errors detected before rd.rec is reset.
func (rd *Reader) wrapHeaderless(typ, sub uint16, err error) error {
	return &RecordError{Offset: rd.off, Span: rd.span, Type: typ, Subtype: sub, Err: err}
}

// mapASN narrows a wire AS number into the 16-bit space, substituting
// ASTrans (and counting it) when the value does not fit.
func (rd *Reader) mapASN(v uint32) astypes.ASN {
	if v > 0xffff {
		rd.stats.AS4Substituted++
		return ASTrans
	}
	return astypes.ASN(v)
}

// decodePeerIndex parses a PEER_INDEX_TABLE and installs it as the
// current peer table. Once-per-archive, so it allocates freely.
func (rd *Reader) decodePeerIndex(body []byte) error {
	if len(body) < 6 {
		return fmt.Errorf("%w: peer index table %d bytes", ErrBadRecord, len(body))
	}
	collectorID := binary.BigEndian.Uint32(body[0:4])
	vLen := int(binary.BigEndian.Uint16(body[4:6]))
	if len(body) < 6+vLen+2 {
		return fmt.Errorf("%w: view name %d bytes exceeds record", ErrBadRecord, vLen)
	}
	viewName := string(body[6 : 6+vLen])
	count := int(binary.BigEndian.Uint16(body[6+vLen : 8+vLen]))
	data := body[8+vLen:]
	peers := make([]Peer, 0, count)
	for i := 0; i < count; i++ {
		if len(data) < 1 {
			return fmt.Errorf("%w: truncated peer entry %d", ErrBadRecord, i)
		}
		pt := data[0]
		var p Peer
		p.IPv6 = pt&0x01 != 0
		as4 := pt&0x02 != 0
		ipLen, asLen := 4, 2
		if p.IPv6 {
			ipLen = 16
		}
		if as4 {
			asLen = 4
		}
		if len(data) < 1+4+ipLen+asLen {
			return fmt.Errorf("%w: truncated peer entry %d", ErrBadRecord, i)
		}
		p.BGPID = binary.BigEndian.Uint32(data[1:5])
		if !p.IPv6 {
			p.IP = binary.BigEndian.Uint32(data[5 : 5+4])
		}
		if as4 {
			p.AS = binary.BigEndian.Uint32(data[5+ipLen:])
		} else {
			p.AS = uint32(binary.BigEndian.Uint16(data[5+ipLen:]))
		}
		peers = append(peers, p)
		data = data[1+4+ipLen+asLen:]
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after peer table", ErrBadRecord, len(data))
	}
	rd.havePeers = true
	rd.peers = peers
	rd.viewName = viewName
	rd.collectorID = collectorID
	rd.rec.Kind = KindPeerIndex
	rd.rec.CollectorID = collectorID
	rd.rec.ViewName = viewName
	rd.rec.Peers = peers
	return nil
}

// decodeRIB parses a RIB_IPV4_UNICAST record: one prefix and its
// per-peer entries. AS_PATH values are always 4-byte (RFC 6396 §4.3.4).
func (rd *Reader) decodeRIB(body []byte) error {
	if !rd.havePeers {
		return ErrNoPeerIndex
	}
	if len(body) < 5 {
		return fmt.Errorf("%w: RIB record %d bytes", ErrBadRecord, len(body))
	}
	seq := binary.BigEndian.Uint32(body[0:4])
	pLen := body[4]
	if pLen > 32 {
		return fmt.Errorf("%w: prefix length %d", ErrBadRecord, pLen)
	}
	octets := (int(pLen) + 7) / 8
	if len(body) < 5+octets+2 {
		return fmt.Errorf("%w: truncated prefix", ErrBadRecord)
	}
	var addr uint32
	for i := 0; i < octets; i++ {
		addr |= uint32(body[5+i]) << uint(24-8*i)
	}
	if pLen > 0 {
		addr &= ^uint32(0) << (32 - pLen)
	} else {
		addr = 0
	}
	prefix, err := astypes.NewPrefix(addr, pLen)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	count := int(binary.BigEndian.Uint16(body[5+octets : 7+octets]))
	data := body[7+octets:]
	for i := 0; i < count; i++ {
		if len(data) < 8 {
			return fmt.Errorf("%w: truncated RIB entry %d", ErrBadRecord, i)
		}
		peerIndex := binary.BigEndian.Uint16(data[0:2])
		if int(peerIndex) >= len(rd.peers) {
			return fmt.Errorf("%w: index %d with %d peers", ErrBadPeerIndex, peerIndex, len(rd.peers))
		}
		originated := binary.BigEndian.Uint32(data[2:6])
		aLen := int(binary.BigEndian.Uint16(data[6:8]))
		if aLen == 0 {
			// An entry with no attributes has no ORIGIN or AS_PATH: it
			// carries nothing the monitor can use and real table dumps
			// never emit it, so it marks corruption.
			return fmt.Errorf("%w: zero-length RIB entry %d", ErrBadRecord, i)
		}
		if len(data) < 8+aLen {
			return fmt.Errorf("%w: RIB entry %d attributes %d bytes exceed record", ErrBadRecord, i, aLen)
		}
		rd.scr = attrScratch{}
		if err := rd.decodeAttrs(data[8:8+aLen], true, &rd.scr); err != nil {
			return err
		}
		rd.entMeta = append(rd.entMeta, entryMeta{
			peerIndex:  peerIndex,
			originated: originated,
			s:          rd.scr,
		})
		data = data[8+aLen:]
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after RIB entries", ErrBadRecord, len(data))
	}
	// The record parsed completely: the arenas stop moving, so the
	// entry slices can be carved.
	rd.materializeSegs()
	if cap(rd.entries) < len(rd.entMeta) {
		// Entry arena growth, amortized to zero at the archive's widest RIB record.
		rd.entries = make([]RIBEntry, 0, 2*len(rd.entMeta))
	}
	rd.entries = rd.entries[:0]
	for _, m := range rd.entMeta {
		rd.entries = append(rd.entries, RIBEntry{
			PeerIndex:    m.peerIndex,
			PeerAS:       rd.peers[m.peerIndex].ASN(),
			Originated:   m.originated,
			Origin:       m.s.origin,
			Path:         rd.pathFor(m.s),
			NextHop:      m.s.nextHop,
			LocalPref:    m.s.localPref,
			HasLocalPref: m.s.hasLocalPref,
			Communities:  rd.commsFor(m.s),
		})
	}
	rd.rec.Kind = KindRIB
	rd.rec.Seq = seq
	rd.rec.Prefix = prefix
	rd.rec.Entries = rd.entries
	rd.stats.RIBPrefixes++
	rd.stats.RIBEntries += uint64(len(rd.entries))
	return nil
}

// materializeSegs builds the segment arena from the recorded index
// ranges. Pre-sized before the loop so the appends never move the
// backing array under the slices being carved from it.
func (rd *Reader) materializeSegs() {
	if cap(rd.segs) < len(rd.segMeta) {
		// Segment arena growth, amortized to zero at the archive's deepest record.
		rd.segs = make([]astypes.Segment, 0, 2*len(rd.segMeta))
	}
	rd.segs = rd.segs[:0]
	for _, m := range rd.segMeta {
		rd.segs = append(rd.segs, astypes.Segment{
			Type: m.typ,
			ASNs: rd.asns[m.lo:m.hi:m.hi],
		})
	}
}

func (rd *Reader) pathFor(s attrScratch) astypes.ASPath {
	if s.segLo == s.segHi {
		return astypes.ASPath{}
	}
	return astypes.ASPath{Segments: rd.segs[s.segLo:s.segHi:s.segHi]}
}

func (rd *Reader) commsFor(s attrScratch) []astypes.Community {
	if s.commLo == s.commHi {
		return nil
	}
	return rd.comms[s.commLo:s.commHi:s.commHi]
}

// decodeMessage parses a BGP4MP MESSAGE or MESSAGE_AS4 body: the peer
// header followed by one raw BGP message. UPDATEs decode into the
// Reader's scratch wire.Update; other message types are exposed by
// their type code only.
func (rd *Reader) decodeMessage(body []byte, as4 bool) error {
	peerAS, localAS, rest, err := rd.decodePeerHeader(body, as4)
	if err != nil {
		return err
	}
	if len(rest) < wire.HeaderLen {
		return fmt.Errorf("%w: BGP message %d bytes < header", ErrBadRecord, len(rest))
	}
	for i := 0; i < 16; i++ {
		if rest[i] != 0xff {
			return fmt.Errorf("%w: bad BGP marker", ErrBadRecord)
		}
	}
	mLen := int(binary.BigEndian.Uint16(rest[16:18]))
	if mLen != len(rest) || mLen > wire.MaxMessageLen {
		return fmt.Errorf("%w: BGP message declares %d bytes, record carries %d", ErrBadRecord, mLen, len(rest))
	}
	rd.rec.Kind = KindMessage
	rd.rec.PeerAS = peerAS
	rd.rec.LocalAS = localAS
	rd.rec.MsgType = wire.MsgType(rest[18])
	rd.stats.Messages++
	if rd.rec.MsgType == wire.MsgUpdate {
		if err := rd.decodeUpdateBody(rest[wire.HeaderLen:], as4); err != nil {
			return err
		}
		rd.rec.Update = &rd.upd
		rd.stats.Updates++
	}
	return nil
}

// decodeStateChange parses a BGP4MP STATE_CHANGE(_AS4) body.
func (rd *Reader) decodeStateChange(body []byte, as4 bool) error {
	peerAS, localAS, rest, err := rd.decodePeerHeader(body, as4)
	if err != nil {
		return err
	}
	if len(rest) != 4 {
		return fmt.Errorf("%w: state change carries %d bytes, want 4", ErrBadRecord, len(rest))
	}
	rd.rec.Kind = KindStateChange
	rd.rec.PeerAS = peerAS
	rd.rec.LocalAS = localAS
	rd.rec.OldState = binary.BigEndian.Uint16(rest[0:2])
	rd.rec.NewState = binary.BigEndian.Uint16(rest[2:4])
	rd.stats.StateChanges++
	return nil
}

// decodePeerHeader parses the BGP4MP peer header shared by MESSAGE and
// STATE_CHANGE: peer AS, local AS (2 or 4 bytes), interface index, AFI,
// and the two addresses. Returns the narrowed AS numbers and the bytes
// that follow.
func (rd *Reader) decodePeerHeader(body []byte, as4 bool) (peerAS, localAS astypes.ASN, rest []byte, err error) {
	asLen := 2
	if as4 {
		asLen = 4
	}
	need := 2*asLen + 4 // ASes + interface index + AFI
	if len(body) < need {
		return 0, 0, nil, fmt.Errorf("%w: BGP4MP header %d bytes", ErrBadRecord, len(body))
	}
	var pAS, lAS uint32
	if as4 {
		pAS = binary.BigEndian.Uint32(body[0:4])
		lAS = binary.BigEndian.Uint32(body[4:8])
	} else {
		pAS = uint32(binary.BigEndian.Uint16(body[0:2]))
		lAS = uint32(binary.BigEndian.Uint16(body[2:4]))
	}
	afi := binary.BigEndian.Uint16(body[need-2 : need])
	body = body[need:]
	ipLen := 4
	switch afi {
	case 1:
	case 2:
		ipLen = 16
	default:
		return 0, 0, nil, fmt.Errorf("%w: AFI %d", ErrBadRecord, afi)
	}
	if len(body) < 2*ipLen {
		return 0, 0, nil, fmt.Errorf("%w: truncated peer addresses", ErrBadRecord)
	}
	return rd.mapASN(pAS), rd.mapASN(lAS), body[2*ipLen:], nil
}

// decodeUpdateBody parses the body of an embedded BGP UPDATE into the
// Reader's scratch wire.Update. Identical framing to the wire codec,
// with the AS_PATH width parameterized: MESSAGE_AS4 records carry
// 4-byte AS numbers.
func (rd *Reader) decodeUpdateBody(body []byte, as4 bool) error {
	rd.upd.Withdrawn = rd.upd.Withdrawn[:0]
	rd.upd.NLRI = rd.upd.NLRI[:0]
	rd.upd.Attrs = wire.PathAttrs{}
	if len(body) < 4 {
		return fmt.Errorf("%w: UPDATE body %d bytes", ErrBadRecord, len(body))
	}
	wLen := int(binary.BigEndian.Uint16(body[0:2]))
	rest := body[2:]
	if wLen > len(rest) {
		return fmt.Errorf("%w: withdrawn length %d exceeds body", ErrBadRecord, wLen)
	}
	var err error
	rd.upd.Withdrawn, err = appendPrefixes(rd.upd.Withdrawn, rest[:wLen])
	if err != nil {
		return fmt.Errorf("%w: withdrawn routes: %v", ErrBadRecord, err)
	}
	rest = rest[wLen:]
	if len(rest) < 2 {
		return fmt.Errorf("%w: missing attribute length", ErrBadRecord)
	}
	aLen := int(binary.BigEndian.Uint16(rest[0:2]))
	rest = rest[2:]
	if aLen > len(rest) {
		return fmt.Errorf("%w: attribute length %d exceeds body", ErrBadRecord, aLen)
	}
	rd.scr = attrScratch{}
	if err := rd.decodeAttrs(rest[:aLen], as4, &rd.scr); err != nil {
		return err
	}
	rd.upd.NLRI, err = appendPrefixes(rd.upd.NLRI, rest[aLen:])
	if err != nil {
		return fmt.Errorf("%w: NLRI: %v", ErrBadRecord, err)
	}
	if len(rd.upd.NLRI) > 0 {
		if !rd.scr.hasOrigin {
			return fmt.Errorf("%w: UPDATE with NLRI but no ORIGIN", ErrBadRecord)
		}
		if !rd.scr.hasNextHop {
			return fmt.Errorf("%w: UPDATE with NLRI but no NEXT_HOP", ErrBadRecord)
		}
	}
	rd.materializeSegs()
	rd.upd.Attrs = wire.PathAttrs{
		HasOrigin:       rd.scr.hasOrigin,
		Origin:          rd.scr.origin,
		ASPath:          rd.pathFor(rd.scr),
		HasNextHop:      rd.scr.hasNextHop,
		NextHop:         rd.scr.nextHop,
		HasLocalPref:    rd.scr.hasLocalPref,
		LocalPref:       rd.scr.localPref,
		AtomicAggregate: rd.scr.atomicAggregate,
		HasAggregator:   rd.scr.hasAggregator,
		AggregatorAS:    rd.scr.aggregatorAS,
		AggregatorID:    rd.scr.aggregatorID,
		Communities:     rd.commsFor(rd.scr),
	}
	return nil
}

// Path attribute codes decoded (or deliberately skipped) by the MRT
// attribute parser. The wire package keeps its equivalents unexported;
// MRT needs its own table anyway for the 4-byte-AS variants.
const (
	aOrigin          uint8 = 1
	aASPath          uint8 = 2
	aNextHop         uint8 = 3
	aLocalPref       uint8 = 5
	aAtomicAggregate uint8 = 6
	aAggregator      uint8 = 7
	aCommunity       uint8 = 8
)

// Attribute flag bits.
const (
	afOptional uint8 = 0x80
	afExtLen   uint8 = 0x10
)

// decodeAttrs parses one attribute block into s, appending path
// segments and communities to the Reader's arenas and recording only
// index ranges. Attributes outside the decoded set — MED, MP_REACH,
// AS4_PATH (which adds nothing when ASNs narrow to 16 bits anyway), … —
// are skipped and counted, never an error: archive attribute diversity
// is far wider than a live paper-era session's.
func (rd *Reader) decodeAttrs(data []byte, as4 bool, s *attrScratch) error {
	s.segLo = int32(len(rd.segMeta))
	s.segHi = s.segLo
	s.commLo = int32(len(rd.comms))
	s.commHi = s.commLo
	var seen [256]bool
	for len(data) > 0 {
		if len(data) < 3 {
			return fmt.Errorf("%w: truncated attribute header", ErrBadRecord)
		}
		flags, code := data[0], data[1]
		var vLen, off int
		if flags&afExtLen != 0 {
			if len(data) < 4 {
				return fmt.Errorf("%w: truncated extended attribute length", ErrBadRecord)
			}
			vLen = int(binary.BigEndian.Uint16(data[2:4]))
			off = 4
		} else {
			vLen = int(data[2])
			off = 3
		}
		if off+vLen > len(data) {
			return fmt.Errorf("%w: attribute %d length %d exceeds block", ErrBadRecord, code, vLen)
		}
		val := data[off : off+vLen]
		data = data[off+vLen:]
		if seen[code] {
			return fmt.Errorf("%w: duplicate attribute %d", ErrBadRecord, code)
		}
		seen[code] = true
		switch code {
		case aOrigin:
			if vLen != 1 || val[0] > uint8(wire.OriginIncomplete) {
				return fmt.Errorf("%w: ORIGIN length %d", ErrBadRecord, vLen)
			}
			s.hasOrigin, s.origin = true, wire.OriginCode(val[0])
		case aASPath:
			if err := rd.decodeASPath(val, as4); err != nil {
				return err
			}
			s.segHi = int32(len(rd.segMeta))
		case aNextHop:
			if vLen != 4 {
				return fmt.Errorf("%w: NEXT_HOP length %d", ErrBadRecord, vLen)
			}
			s.hasNextHop, s.nextHop = true, binary.BigEndian.Uint32(val)
		case aLocalPref:
			if vLen != 4 {
				return fmt.Errorf("%w: LOCAL_PREF length %d", ErrBadRecord, vLen)
			}
			s.hasLocalPref, s.localPref = true, binary.BigEndian.Uint32(val)
		case aAtomicAggregate:
			if vLen != 0 {
				return fmt.Errorf("%w: ATOMIC_AGGREGATE length %d", ErrBadRecord, vLen)
			}
			s.atomicAggregate = true
		case aAggregator:
			// 6 bytes with a 2-byte AS, 8 with a 4-byte one; archives mix
			// both widths regardless of the record subtype.
			switch vLen {
			case 6:
				s.aggregatorAS = rd.mapASN(uint32(binary.BigEndian.Uint16(val[0:2])))
				s.aggregatorID = binary.BigEndian.Uint32(val[2:6])
			case 8:
				s.aggregatorAS = rd.mapASN(binary.BigEndian.Uint32(val[0:4]))
				s.aggregatorID = binary.BigEndian.Uint32(val[4:8])
			default:
				return fmt.Errorf("%w: AGGREGATOR length %d", ErrBadRecord, vLen)
			}
			s.hasAggregator = true
		case aCommunity:
			if vLen%4 != 0 {
				return fmt.Errorf("%w: COMMUNITY length %d", ErrBadRecord, vLen)
			}
			for i := 0; i < vLen; i += 4 {
				rd.comms = append(rd.comms, astypes.NewCommunity(
					astypes.ASN(binary.BigEndian.Uint16(val[i:i+2])),
					binary.BigEndian.Uint16(val[i+2:i+4])))
			}
			s.commHi = int32(len(rd.comms))
		default:
			rd.stats.SkippedAttrs++
		}
	}
	return nil
}

// decodeASPath appends the AS_PATH segments in val to the arenas, with
// the AS width (2 or 4 bytes) set by the record subtype. TABLE_DUMP_V2
// RIB entries are always 4-byte (RFC 6396 §4.3.4).
func (rd *Reader) decodeASPath(val []byte, as4 bool) error {
	asLen := 2
	if as4 {
		asLen = 4
	}
	for len(val) > 0 {
		if len(val) < 2 {
			return fmt.Errorf("%w: truncated AS_PATH segment header", ErrBadRecord)
		}
		segType, count := val[0], int(val[1])
		if segType != uint8(astypes.SegSequence) && segType != uint8(astypes.SegSet) {
			return fmt.Errorf("%w: AS_PATH segment type %d", ErrBadRecord, segType)
		}
		need := 2 + asLen*count
		if len(val) < need {
			return fmt.Errorf("%w: AS_PATH segment needs %d bytes, have %d", ErrBadRecord, need, len(val))
		}
		lo := int32(len(rd.asns))
		for i := 0; i < count; i++ {
			off := 2 + asLen*i
			var v uint32
			if as4 {
				v = binary.BigEndian.Uint32(val[off : off+4])
			} else {
				v = uint32(binary.BigEndian.Uint16(val[off : off+2]))
			}
			rd.asns = append(rd.asns, rd.mapASN(v))
		}
		rd.segMeta = append(rd.segMeta, segRange{
			typ: astypes.SegmentType(segType),
			lo:  lo,
			hi:  int32(len(rd.asns)),
		})
		val = val[need:]
	}
	return nil
}

// appendPrefixes appends the prefixes encoded in data to out (the same
// framing as BGP NLRI; the wire package keeps its decoder unexported).
func appendPrefixes(out []astypes.Prefix, data []byte) ([]astypes.Prefix, error) {
	for len(data) > 0 {
		length := data[0]
		if length > 32 {
			return nil, fmt.Errorf("prefix length %d out of range", length)
		}
		octets := (int(length) + 7) / 8
		if len(data) < 1+octets {
			return nil, fmt.Errorf("truncated prefix of length %d", length)
		}
		var addr uint32
		for i := 0; i < octets; i++ {
			addr |= uint32(data[1+i]) << uint(24-8*i)
		}
		if length > 0 {
			addr &= ^uint32(0) << (32 - length)
		} else {
			addr = 0
		}
		p, err := astypes.NewPrefix(addr, length)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
		data = data[1+octets:]
	}
	return out, nil
}
