package wire

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/astypes"
)

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	buf, err := Encode(m)
	if err != nil {
		t.Fatalf("Encode(%v): %v", m.Type(), err)
	}
	back, err := Decode(buf)
	if err != nil {
		t.Fatalf("Decode(%v): %v", m.Type(), err)
	}
	return back
}

func TestOpenRoundTrip(t *testing.T) {
	o := &Open{Version: Version4, AS: 701, HoldTime: 90, BGPID: 0x0a000001}
	back := roundTrip(t, o).(*Open)
	if !reflect.DeepEqual(o, back) {
		t.Errorf("roundtrip: %+v != %+v", back, o)
	}
}

func TestKeepaliveRoundTrip(t *testing.T) {
	if _, ok := roundTrip(t, &Keepalive{}).(*Keepalive); !ok {
		t.Error("expected Keepalive")
	}
}

func TestNotificationRoundTrip(t *testing.T) {
	n := &Notification{Code: ErrCodeUpdate, Subcode: SubMalformedASPath, Data: []byte{1, 2}}
	back := roundTrip(t, n).(*Notification)
	if !reflect.DeepEqual(n, back) {
		t.Errorf("roundtrip: %+v != %+v", back, n)
	}
}

func TestUpdateRoundTripFull(t *testing.T) {
	u := &Update{
		Withdrawn: []astypes.Prefix{
			astypes.MustPrefix(0x0a000000, 8),
			astypes.MustPrefix(0xc0a80000, 16),
		},
		Attrs: PathAttrs{
			HasOrigin:    true,
			Origin:       OriginEGP,
			ASPath:       astypes.NewSeqPath(701, 1239, 4),
			HasNextHop:   true,
			NextHop:      0x0a000001,
			HasLocalPref: true,
			LocalPref:    200,
			Communities: []astypes.Community{
				astypes.NewCommunity(4, 0xffde),
				astypes.NewCommunity(226, 0xffde),
			},
		},
		NLRI: []astypes.Prefix{
			astypes.MustPrefix(0x83b30000, 16),
			astypes.MustPrefix(0x00000000, 0),
			astypes.MustPrefix(0xffffffff, 32),
		},
	}
	back := roundTrip(t, u).(*Update)
	if !reflect.DeepEqual(u, back) {
		t.Errorf("roundtrip mismatch:\n got %+v\nwant %+v", back, u)
	}
}

func TestUpdateWithdrawOnly(t *testing.T) {
	u := &Update{Withdrawn: []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8)}}
	back := roundTrip(t, u).(*Update)
	if len(back.NLRI) != 0 || len(back.Withdrawn) != 1 {
		t.Errorf("roundtrip = %+v", back)
	}
}

func TestUpdateASSetSegment(t *testing.T) {
	u := &Update{
		Attrs: PathAttrs{
			HasOrigin:  true,
			Origin:     OriginIncomplete,
			HasNextHop: true,
			ASPath: astypes.ASPath{Segments: []astypes.Segment{
				{Type: astypes.SegSequence, ASNs: []astypes.ASN{701}},
				{Type: astypes.SegSet, ASNs: []astypes.ASN{4006, 4544}},
			}},
		},
		NLRI: []astypes.Prefix{astypes.MustPrefix(0x0c000000, 8)},
	}
	back := roundTrip(t, u).(*Update)
	if !back.Attrs.ASPath.Equal(u.Attrs.ASPath) {
		t.Errorf("AS_SET roundtrip: %v != %v", back.Attrs.ASPath, u.Attrs.ASPath)
	}
}

func TestUpdateUnknownAttrTransits(t *testing.T) {
	u := &Update{
		Attrs: PathAttrs{
			HasOrigin:  true,
			HasNextHop: true,
			ASPath:     astypes.NewSeqPath(1),
			Unknown: []UnknownAttr{
				{Flags: flagOptional | flagTransitive, Code: 99, Value: []byte{0xde, 0xad}},
			},
		},
		NLRI: []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8)},
	}
	back := roundTrip(t, u).(*Update)
	if len(back.Attrs.Unknown) != 1 || back.Attrs.Unknown[0].Code != 99 ||
		!bytes.Equal(back.Attrs.Unknown[0].Value, []byte{0xde, 0xad}) {
		t.Errorf("unknown attr roundtrip = %+v", back.Attrs.Unknown)
	}
}

func TestUpdateLargeCommunityListUsesExtendedLength(t *testing.T) {
	attrs := PathAttrs{HasOrigin: true, HasNextHop: true, ASPath: astypes.NewSeqPath(1)}
	for i := 0; i < 100; i++ { // 400 bytes > 255 forces extended length
		attrs.Communities = append(attrs.Communities, astypes.NewCommunity(astypes.ASN(i+1), 0xffde))
	}
	u := &Update{Attrs: attrs, NLRI: []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8)}}
	back := roundTrip(t, u).(*Update)
	if len(back.Attrs.Communities) != 100 {
		t.Errorf("communities roundtrip = %d", len(back.Attrs.Communities))
	}
}

func TestDecodeRejectsBadMarker(t *testing.T) {
	buf, _ := Encode(&Keepalive{})
	buf[0] = 0
	_, err := Decode(buf)
	assertMessageError(t, err, ErrCodeHeader, SubConnNotSynced)
}

func TestDecodeRejectsBadType(t *testing.T) {
	buf, _ := Encode(&Keepalive{})
	buf[18] = 42
	_, err := Decode(buf)
	assertMessageError(t, err, ErrCodeHeader, SubBadType)
}

func TestDecodeRejectsLengthMismatch(t *testing.T) {
	buf, _ := Encode(&Keepalive{})
	buf[17]++ // declared length now exceeds actual
	if _, err := Decode(buf); err == nil {
		t.Error("length mismatch accepted")
	}
}

func TestDecodeRejectsKeepaliveWithBody(t *testing.T) {
	buf, _ := Encode(&Keepalive{})
	buf = append(buf, 0)
	buf[17] = byte(len(buf))
	if _, err := Decode(buf); err == nil {
		t.Error("KEEPALIVE with body accepted")
	}
}

func TestDecodeOpenVersionError(t *testing.T) {
	o := &Open{Version: 3, AS: 1, HoldTime: 90, BGPID: 1}
	buf, err := Encode(o)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Decode(buf)
	assertMessageError(t, err, ErrCodeOpen, SubUnsupportedVersion)
}

func TestDecodeOpenBadHoldTime(t *testing.T) {
	o := &Open{Version: Version4, AS: 1, HoldTime: 2, BGPID: 1}
	buf, _ := Encode(o)
	_, err := Decode(buf)
	assertMessageError(t, err, ErrCodeOpen, SubUnacceptableHold)
}

func TestDecodeUpdateMissingMandatory(t *testing.T) {
	u := &Update{
		Attrs: PathAttrs{ASPath: astypes.NewSeqPath(1)},
		NLRI:  []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8)},
	}
	// Hand-encode without ORIGIN/NEXT_HOP by building the body manually:
	// encodeBody adds them when NLRI present (mandatory), so corrupt a
	// valid encoding instead: strip the ORIGIN attribute.
	buf, err := Encode(&Update{
		Attrs: PathAttrs{
			HasOrigin:  true,
			HasNextHop: true,
			ASPath:     astypes.NewSeqPath(1),
		},
		NLRI: u.NLRI,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Locate and zero out the attribute block except AS_PATH+NEXT_HOP is
	// fiddly; instead decode a crafted body: attrs = NEXT_HOP only.
	body := []byte{0, 0} // no withdrawn
	attr := []byte{flagTransitive, attrNextHop, 4, 10, 0, 0, 1}
	body = append(body, byte(len(attr)>>8), byte(len(attr)))
	body = append(body, attr...)
	body = append(body, 8, 10) // NLRI 10.0.0.0/8
	full := append(buf[:HeaderLen:HeaderLen], body...)
	full[16] = byte(len(full) >> 8)
	full[17] = byte(len(full))
	_, err = Decode(full)
	assertMessageError(t, err, ErrCodeUpdate, SubMissingMandatory)
}

func TestDecodeUpdateDuplicateAttr(t *testing.T) {
	body := []byte{0, 0}
	attr := []byte{
		flagTransitive, attrOrigin, 1, 0,
		flagTransitive, attrOrigin, 1, 0,
	}
	body = append(body, byte(len(attr)>>8), byte(len(attr)))
	body = append(body, attr...)
	full := frame(MsgUpdate, body)
	_, err := Decode(full)
	assertMessageError(t, err, ErrCodeUpdate, SubMalformedAttrList)
}

func TestDecodeUpdateBadPrefixLength(t *testing.T) {
	body := []byte{0, 1, 40, 0, 0} // withdrawn: /40
	full := frame(MsgUpdate, body)
	if _, err := Decode(full); err == nil {
		t.Error("prefix /40 accepted")
	}
}

func TestDecodeUpdateTruncatedAttr(t *testing.T) {
	body := []byte{0, 0, 0, 2, flagTransitive, attrOrigin} // header cut short
	full := frame(MsgUpdate, body)
	if _, err := Decode(full); err == nil {
		t.Error("truncated attribute accepted")
	}
}

func TestDecodeUpdateStrayHostBitsMasked(t *testing.T) {
	// Withdrawn 10.0.0.0/7 encoded with a second set bit below the
	// mask: the decoder masks rather than rejects.
	body := []byte{0, 2, 7, 0x0b, 0, 0}
	full := frame(MsgUpdate, body)
	m, err := Decode(full)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	u := m.(*Update)
	if len(u.Withdrawn) != 1 || u.Withdrawn[0].String() != "10.0.0.0/7" {
		t.Errorf("Withdrawn = %v", u.Withdrawn)
	}
}

func TestUnrecognizedWellKnownAttrRejected(t *testing.T) {
	body := []byte{0, 0}
	attr := []byte{0 /* well-known flags */, 77, 1, 0}
	body = append(body, byte(len(attr)>>8), byte(len(attr)))
	body = append(body, attr...)
	full := frame(MsgUpdate, body)
	_, err := Decode(full)
	assertMessageError(t, err, ErrCodeUpdate, SubUnrecognizedAttr)
}

func TestOptionalNonTransitiveUnknownDropped(t *testing.T) {
	body := []byte{0, 0}
	attr := []byte{flagOptional, 77, 1, 0}
	body = append(body, byte(len(attr)>>8), byte(len(attr)))
	body = append(body, attr...)
	full := frame(MsgUpdate, body)
	m, err := Decode(full)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if u := m.(*Update); len(u.Attrs.Unknown) != 0 {
		t.Errorf("optional non-transitive unknown kept: %+v", u.Attrs.Unknown)
	}
}

func TestReadWriteMessageFraming(t *testing.T) {
	var buf bytes.Buffer
	msgs := []Message{
		&Open{Version: Version4, AS: 1, HoldTime: 90, BGPID: 7},
		&Keepalive{},
		&Update{
			Attrs: PathAttrs{HasOrigin: true, HasNextHop: true, ASPath: astypes.NewSeqPath(1)},
			NLRI:  []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8)},
		},
		&Notification{Code: 6},
	}
	for _, m := range msgs {
		if err := WriteMessage(&buf, m); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	for i, want := range msgs {
		got, err := ReadMessage(&buf)
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Errorf("message %d type = %v, want %v", i, got.Type(), want.Type())
		}
	}
	if _, err := ReadMessage(&buf); !errors.Is(err, io.EOF) {
		t.Errorf("expected EOF, got %v", err)
	}
}

func TestReadMessageTruncated(t *testing.T) {
	buf, _ := Encode(&Open{Version: Version4, AS: 1, HoldTime: 90, BGPID: 7})
	r := bytes.NewReader(buf[:len(buf)-2])
	if _, err := ReadMessage(r); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("expected unexpected EOF, got %v", err)
	}
}

func TestReadMessageBogusLength(t *testing.T) {
	buf, _ := Encode(&Keepalive{})
	buf[16], buf[17] = 0xff, 0xff // 65535 > max
	if _, err := ReadMessage(bytes.NewReader(buf)); err == nil {
		t.Error("bogus length accepted")
	}
}

func TestUpdateRoundTripQuick(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		u := randomUpdate(rng)
		buf, err := Encode(u)
		if err != nil {
			t.Fatalf("encode %d: %v", i, err)
		}
		m, err := Decode(buf)
		if err != nil {
			t.Fatalf("decode %d: %v", i, err)
		}
		back := m.(*Update)
		if !reflect.DeepEqual(u, back) {
			t.Fatalf("roundtrip %d mismatch:\n got %#v\nwant %#v", i, back, u)
		}
	}
}

func randomUpdate(rng *rand.Rand) *Update {
	u := &Update{}
	for i := rng.Intn(4); i > 0; i-- {
		u.Withdrawn = append(u.Withdrawn, randomPrefix(rng))
	}
	if rng.Intn(4) > 0 { // usually has NLRI
		for i := rng.Intn(4) + 1; i > 0; i-- {
			u.NLRI = append(u.NLRI, randomPrefix(rng))
		}
	}
	if len(u.NLRI) > 0 {
		u.Attrs.HasOrigin = true
		u.Attrs.Origin = OriginCode(rng.Intn(3))
		u.Attrs.HasNextHop = true
		u.Attrs.NextHop = rng.Uint32()
		hops := make([]astypes.ASN, rng.Intn(5)+1)
		for i := range hops {
			hops[i] = astypes.ASN(rng.Intn(65535) + 1)
		}
		u.Attrs.ASPath = astypes.NewSeqPath(hops...)
		if rng.Intn(2) == 0 {
			u.Attrs.HasLocalPref = true
			u.Attrs.LocalPref = rng.Uint32()
		}
		for i := rng.Intn(4); i > 0; i-- {
			u.Attrs.Communities = append(u.Attrs.Communities,
				astypes.Community(rng.Uint32()))
		}
	}
	return u
}

func randomPrefix(rng *rand.Rand) astypes.Prefix {
	length := uint8(rng.Intn(33))
	addr := rng.Uint32()
	if length == 0 {
		addr = 0
	} else {
		addr &= ^uint32(0) << (32 - length)
	}
	return astypes.MustPrefix(addr, length)
}

func frame(t MsgType, body []byte) []byte {
	full := make([]byte, HeaderLen, HeaderLen+len(body))
	for i := 0; i < markerLen; i++ {
		full[i] = 0xff
	}
	full[18] = byte(t)
	full = append(full, body...)
	full[16] = byte(len(full) >> 8)
	full[17] = byte(len(full))
	return full
}

func assertMessageError(t *testing.T, err error, code, sub uint8) {
	t.Helper()
	if err == nil {
		t.Fatal("expected error")
	}
	var me *MessageError
	if !errors.As(err, &me) {
		t.Fatalf("expected MessageError, got %T: %v", err, err)
	}
	if me.Code != code || me.Subcode != sub {
		t.Errorf("error code/subcode = %d/%d, want %d/%d", me.Code, me.Subcode, code, sub)
	}
}

func TestRouteRefreshRoundTrip(t *testing.T) {
	rr := &RouteRefresh{AFI: AFIIPv4, SAFI: SAFIUnicast}
	back := roundTrip(t, rr).(*RouteRefresh)
	if back.AFI != AFIIPv4 || back.SAFI != SAFIUnicast {
		t.Errorf("roundtrip = %+v", back)
	}
	if MsgRouteRefresh.String() != "ROUTE-REFRESH" {
		t.Errorf("type string = %q", MsgRouteRefresh.String())
	}
}

func TestRouteRefreshBadLength(t *testing.T) {
	full := frame(MsgRouteRefresh, []byte{0, 1, 0}) // 3 bytes, want 4
	if _, err := Decode(full); err == nil {
		t.Error("short ROUTE-REFRESH accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	tests := map[MsgType]string{
		MsgOpen:         "OPEN",
		MsgUpdate:       "UPDATE",
		MsgNotification: "NOTIFICATION",
		MsgKeepalive:    "KEEPALIVE",
		MsgRouteRefresh: "ROUTE-REFRESH",
		MsgType(77):     "TYPE(77)",
	}
	for mt, want := range tests {
		if mt.String() != want {
			t.Errorf("MsgType(%d).String() = %q", mt, mt.String())
		}
	}
}

func TestMessageErrorString(t *testing.T) {
	err := &MessageError{Code: ErrCodeUpdate, Subcode: SubMalformedASPath, Reason: "boom"}
	want := "bgp message error (code 3 subcode 11): boom"
	if err.Error() != want {
		t.Errorf("Error() = %q, want %q", err.Error(), want)
	}
}

func TestUnknownAttrHelpers(t *testing.T) {
	a := NewOptionalTransitive(254, []byte{1, 2})
	if a.Code != 254 || a.Flags&flagOptional == 0 || a.Flags&flagTransitive == 0 {
		t.Errorf("NewOptionalTransitive = %+v", a)
	}
	// Value is copied defensively.
	src := []byte{9}
	b := NewOptionalTransitive(200, src)
	src[0] = 0
	if b.Value[0] != 9 {
		t.Error("value aliased caller storage")
	}

	attrs := []UnknownAttr{a, b}
	cp := CloneUnknownAttrs(attrs)
	cp[0].Value[0] = 0xff
	if attrs[0].Value[0] == 0xff {
		t.Error("CloneUnknownAttrs aliased storage")
	}
	if CloneUnknownAttrs(nil) != nil {
		t.Error("clone of nil should be nil")
	}

	if got := FindUnknownAttr(attrs, 200); len(got) != 1 || got[0] != 9 {
		t.Errorf("FindUnknownAttr(200) = %v", got)
	}
	if FindUnknownAttr(attrs, 99) != nil {
		t.Error("absent code should be nil")
	}
}

// TestUpdateAS4RoundTrip: at 4-octet width AS_PATH and AGGREGATOR keep
// AS numbers above 65535, which the 2-octet encoding narrows to
// AS_TRANS.
func TestUpdateAS4RoundTrip(t *testing.T) {
	u := &Update{Attrs: wireAttrs(), NLRI: []astypes.Prefix{astypes.MustPrefix(0x83b30000, 16)}}
	u.Attrs.ASPath = astypes.NewSeqPath(4200000000, 196615, 701)
	u.Attrs.AggregatorAS = 196615
	b4, err := AppendUpdate(nil, u, AS4)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := AppendMessage(nil, u)
	if err != nil {
		t.Fatal(err)
	}
	// Three ASes and the aggregator each grow by two octets.
	if len(b4)-len(b2) != 8 {
		t.Errorf("4-octet UPDATE is %d bytes, 2-octet %d: want 8 more", len(b4), len(b2))
	}
	var d Decoder
	got, err := d.DecodeUpdate(b4[HeaderLen:], AS4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Attrs, u.Attrs) || !reflect.DeepEqual(got.NLRI, u.NLRI) {
		t.Errorf("4-octet round trip:\n got %+v\nwant %+v", got, u)
	}
	narrow, err := Decode(b2)
	if err != nil {
		t.Fatal(err)
	}
	want := astypes.NewSeqPath(astypes.ASTrans, astypes.ASTrans, 701)
	if a := narrow.(*Update).Attrs; !reflect.DeepEqual(a.ASPath, want) || a.AggregatorAS != astypes.ASTrans {
		t.Errorf("2-octet encoding: path %v aggregator %d, want %v and AS_TRANS", a.ASPath, a.AggregatorAS, want)
	}
}

// TestAggregatorEitherLength: an 8-byte AGGREGATOR carries a 4-octet AS
// even on a 2-octet session, as archives mix both; other lengths stay
// an attribute length error.
func TestAggregatorEitherLength(t *testing.T) {
	update := func(agg ...byte) []byte {
		attr := append([]byte{flagOptional | flagTransitive, attrAggregator, byte(len(agg))}, agg...)
		return frame(MsgUpdate, append([]byte{0, 0, 0, byte(len(attr))}, attr...))
	}
	for _, c := range []struct {
		agg    []byte
		as, id uint32
	}{
		{[]byte{0x02, 0xbd, 10, 0, 0, 1}, 701, 0x0a000001},
		{[]byte{0, 3, 0, 7, 10, 0, 0, 1}, 196615, 0x0a000001},
	} {
		m, err := Decode(update(c.agg...))
		if err != nil {
			t.Fatalf("%d-byte AGGREGATOR: %v", len(c.agg), err)
		}
		if a := m.(*Update).Attrs; !a.HasAggregator || uint32(a.AggregatorAS) != c.as || a.AggregatorID != c.id {
			t.Errorf("%d-byte AGGREGATOR decoded as AS %d ID %x", len(c.agg), a.AggregatorAS, a.AggregatorID)
		}
	}
	_, err := Decode(update(0, 1, 0, 0, 0, 0, 0))
	assertMessageError(t, err, ErrCodeUpdate, SubAttrLengthError)
}

// TestDecodeAttrsSharesArena: attribute blocks decoded one after
// another — the entries of one RIB record — keep their AS paths until
// Rewind, however far the arena grows in between.
func TestDecodeAttrsSharesArena(t *testing.T) {
	var d Decoder
	blocks := make([][]byte, 3)
	want := make([]astypes.ASPath, len(blocks))
	for i := range blocks {
		asns := make([]astypes.ASN, 10*(i+1)*(i+1))
		for j := range asns {
			asns[j] = astypes.ASN(70000 + 100*i + j)
		}
		want[i] = astypes.NewSeqPath(asns...)
		var err error
		if blocks[i], err = AppendPathAttrs(nil, &PathAttrs{ASPath: want[i]}, AS4); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]PathAttrs, len(blocks))
	for i, b := range blocks {
		if err := d.DecodeAttrs(&got[i], b, AS4); err != nil {
			t.Fatal(err)
		}
	}
	for i := range got {
		if !got[i].HasOrigin || !got[i].HasNextHop || !reflect.DeepEqual(got[i].ASPath, want[i]) {
			t.Errorf("block %d decoded as %+v, want path %v", i, got[i], want[i])
		}
	}
}

func TestPrefixCodec(t *testing.T) {
	p := astypes.MustPrefix(0xc0000280, 25)
	b, err := AppendPrefix([]byte{9}, p)
	if err != nil || !bytes.Equal(b, []byte{9, 25, 0xc0, 0, 2, 0x80}) {
		t.Fatalf("AppendPrefix = %x, %v", b, err)
	}
	got, n, err := DecodePrefix(b[1:])
	if err != nil || got != p || n != 5 {
		t.Errorf("DecodePrefix = %v, %d, %v", got, n, err)
	}
	if _, err := AppendPrefix(nil, astypes.Prefix{Len: 33}); err == nil {
		t.Error("AppendPrefix accepted length 33")
	}
	for _, bad := range [][]byte{nil, {33}, {25, 0xc0, 0, 2}} {
		if _, _, err := DecodePrefix(bad); err == nil {
			t.Errorf("DecodePrefix(%x) accepted", bad)
		}
	}
}
