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
// gzip and bzip2 framing. Path attributes and NLRI decode through the
// wire codec into scratch the Reader owns and reuses on every Next — one
// record buffer, a wire.Decoder and its AS-number arena, one attribute
// set per RIB entry — so decoding an arbitrarily long archive performs
// zero steady-state allocations. The returned Record aliases that
// scratch and is valid only until the next Next call. Not safe for
// concurrent use.
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
	dec wire.Decoder
	// attrs[i] is the decoded attribute set of a RIB record's entry i;
	// each keeps its slices' capacity from record to record.
	attrs   []wire.PathAttrs
	entries []RIBEntry
	// entry is the one-prefix UPDATE Record.Updates presents each RIB
	// entry in.
	entry wire.Update

	stats Stats
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
	return &Reader{r: src, entry: wire.Update{NLRI: make([]astypes.Prefix, 1)}}, nil
}

// Stats returns ingest counters up to the most recent Next.
func (rd *Reader) Stats() Stats { return rd.stats }

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

// narrow maps the AS path and aggregator of a decoded attribute set
// into the 16-bit space in place (see mapASN).
func (rd *Reader) narrow(a *wire.PathAttrs) {
	for _, seg := range a.ASPath.Segments {
		for i, v := range seg.ASNs {
			seg.ASNs[i] = rd.mapASN(uint32(v))
		}
	}
	if a.HasAggregator {
		a.AggregatorAS = rd.mapASN(uint32(a.AggregatorAS))
	}
}

// badRecord marks an error from the wire codec as a malformed record.
func badRecord(err error) error {
	return fmt.Errorf("%w: %w", ErrBadRecord, err)
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
// per-peer entries.
func (rd *Reader) decodeRIB(body []byte) error {
	if !rd.havePeers {
		return ErrNoPeerIndex
	}
	if len(body) < 5 {
		return fmt.Errorf("%w: RIB record %d bytes", ErrBadRecord, len(body))
	}
	seq := binary.BigEndian.Uint32(body[0:4])
	prefix, n, err := wire.DecodePrefix(body[4:])
	if err != nil {
		return badRecord(err)
	}
	if len(body) < 4+n+2 {
		return fmt.Errorf("%w: truncated prefix", ErrBadRecord)
	}
	count := int(binary.BigEndian.Uint16(body[4+n : 6+n]))
	data := body[6+n:]
	rd.dec.Rewind()
	rd.entries = rd.entries[:0]
	for i := 0; i < count; i++ {
		if len(data) < 8 {
			return fmt.Errorf("%w: truncated RIB entry %d", ErrBadRecord, i)
		}
		peerIndex := binary.BigEndian.Uint16(data[0:2])
		if int(peerIndex) >= len(rd.peers) {
			return fmt.Errorf("%w: index %d with %d peers", ErrBadPeerIndex, peerIndex, len(rd.peers))
		}
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
		if i == len(rd.attrs) {
			// Attribute-set growth, amortized to zero at the archive's widest RIB record.
			rd.attrs = append(rd.attrs, wire.PathAttrs{})
		}
		a := &rd.attrs[i]
		// AS_PATH values are always 4-byte (RFC 6396 §4.3.4).
		if err := rd.dec.DecodeAttrs(a, data[8:8+aLen], wire.AS4); err != nil {
			return badRecord(err)
		}
		rd.narrow(a)
		rd.entries = append(rd.entries, RIBEntry{
			PeerIndex:    peerIndex,
			PeerAS:       rd.peers[peerIndex].ASN(),
			Originated:   binary.BigEndian.Uint32(data[2:6]),
			Origin:       a.Origin,
			Path:         a.ASPath,
			NextHop:      a.NextHop,
			LocalPref:    a.LocalPref,
			HasLocalPref: a.HasLocalPref,
			Communities:  a.Communities,
		})
		data = data[8+aLen:]
	}
	if len(data) != 0 {
		return fmt.Errorf("%w: %d trailing bytes after RIB entries", ErrBadRecord, len(data))
	}
	rd.rec.Kind = KindRIB
	rd.rec.Seq = seq
	rd.rec.Prefix = prefix
	rd.rec.Entries = rd.entries
	rd.rec.attrs = rd.attrs[:count]
	rd.rec.entry = &rd.entry
	rd.stats.RIBPrefixes++
	rd.stats.RIBEntries += uint64(len(rd.entries))
	return nil
}

// decodeMessage parses a BGP4MP MESSAGE or MESSAGE_AS4 body: the peer
// header followed by one raw BGP message. UPDATEs decode into the
// Reader's wire.Decoder, with 4-octet AS numbers in MESSAGE_AS4; other
// message types are exposed by their type code only.
func (rd *Reader) decodeMessage(body []byte, as4 bool) error {
	peerAS, localAS, rest, err := rd.decodePeerHeader(body, as4)
	if err != nil {
		return err
	}
	typ, msg, err := wire.SplitMessage(rest)
	if err != nil {
		return badRecord(err)
	}
	rd.rec.Kind = KindMessage
	rd.rec.PeerAS = peerAS
	rd.rec.LocalAS = localAS
	rd.rec.MsgType = typ
	rd.stats.Messages++
	if typ == wire.MsgUpdate {
		w := wire.AS2
		if as4 {
			w = wire.AS4
		}
		u, err := rd.dec.DecodeUpdate(msg, w)
		if err != nil {
			return badRecord(err)
		}
		rd.narrow(&u.Attrs)
		rd.rec.Update = u
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
