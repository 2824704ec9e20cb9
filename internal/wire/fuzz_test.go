package wire

import (
	"bytes"
	"testing"

	"repro/internal/astypes"
)

// FuzzDecode asserts the codec never panics on arbitrary input, and
// that anything it accepts re-encodes and decodes to the same message
// (decode-encode-decode stability).
func FuzzDecode(f *testing.F) {
	// Seed corpus: one valid encoding of each message type plus some
	// deliberately damaged variants.
	seed := func(m Message) []byte {
		buf, err := Encode(m)
		if err != nil {
			f.Fatal(err)
		}
		return buf
	}
	open := seed(&Open{Version: Version4, AS: 701, HoldTime: 90, BGPID: 1})
	update := seed(&Update{
		Withdrawn: []astypes.Prefix{astypes.MustPrefix(0x0a000000, 8)},
		Attrs:     wireAttrs(),
		NLRI:      []astypes.Prefix{astypes.MustPrefix(0x83b30000, 16)},
	})
	keepalive := seed(&Keepalive{})
	notif := seed(&Notification{Code: 6, Subcode: 1, Data: []byte{1}})
	f.Add(open)
	f.Add(update)
	f.Add(keepalive)
	f.Add(notif)
	for _, base := range [][]byte{open, update} {
		for i := 0; i < len(base); i += 3 {
			mut := append([]byte(nil), base...)
			mut[i] ^= 0xa5
			f.Add(mut)
		}
		f.Add(base[:len(base)-1])
		f.Add(append(append([]byte(nil), base...), 0))
	}
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 19))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		re, err := Encode(m)
		if err != nil {
			t.Fatalf("accepted message failed to re-encode: %v", err)
		}
		m2, err := Decode(re)
		if err != nil {
			t.Fatalf("re-encoded message failed to decode: %v", err)
		}
		re2, err := Encode(m2)
		if err != nil {
			t.Fatalf("second re-encode: %v", err)
		}
		if !bytes.Equal(re, re2) {
			t.Fatalf("encode not stable:\n  %x\n  %x", re, re2)
		}
		if u, ok := m.(*Update); ok {
			roundTripAS4(t, u, re)
		}
	})
}

// roundTripAS4 checks that an accepted UPDATE survives the 4-octet
// encoding: decoded back at 4-octet width it re-encodes to the same
// 4-octet bytes and to its original 2-octet form re.
func roundTripAS4(t *testing.T, u *Update, re []byte) {
	b4, err := AppendUpdate(nil, u, AS4)
	if err != nil {
		// Each AS grows by two octets and an AGGREGATOR by two; only
		// an UPDATE near the size limit may outgrow it.
		grow := 2 + 1
		for _, seg := range u.Attrs.ASPath.Segments {
			grow += 2 * len(seg.ASNs)
		}
		if len(re)+grow <= MaxMessageLen {
			t.Fatalf("accepted UPDATE failed to encode at 4-octet width: %v", err)
		}
		return
	}
	var d Decoder
	u4, err := d.DecodeUpdate(b4[HeaderLen:], AS4)
	if err != nil {
		t.Fatalf("4-octet encoding failed to decode: %v\n  %x", err, b4)
	}
	if again, err := AppendUpdate(nil, u4, AS4); err != nil || !bytes.Equal(again, b4) {
		t.Fatalf("4-octet encode not stable (%v):\n  %x\n  %x", err, b4, again)
	}
	if as2, err := AppendMessage(nil, u4); err != nil || !bytes.Equal(as2, re) {
		t.Fatalf("4-octet round trip changed the 2-octet encoding (%v):\n  %x\n  %x", err, re, as2)
	}
}

func wireAttrs() PathAttrs {
	return PathAttrs{
		HasOrigin:       true,
		Origin:          OriginIGP,
		ASPath:          astypes.NewSeqPath(701, 1239, 4),
		HasNextHop:      true,
		NextHop:         0x0a000001,
		HasLocalPref:    true,
		LocalPref:       100,
		AtomicAggregate: true,
		HasAggregator:   true,
		AggregatorAS:    701,
		AggregatorID:    7,
		Communities:     []astypes.Community{astypes.NewCommunity(4, 0xffde)},
	}
}
