package rislive

import (
	"errors"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/astypes"
)

// This file reads one RIS-Live line into an envelope in a single pass,
// without reflection. It accepts and rejects exactly the lines that
// encoding/json.Unmarshal does for the struct Decode used to fill, and
// leaves the values Decode reads the same; FuzzDecodeMatchesJSON holds
// the two equal. The rules it keeps:
//
//   - The line is one JSON value, with optional whitespace around it,
//     nested at most maxDepth deep. Anything else is a syntax error.
//   - A key selects a field by exact name, else by a name equal under
//     Unicode case folding (strings.EqualFold). Keys may be escaped.
//     Members with unknown keys are validated and skipped.
//   - A value of the wrong type for a known field is an error, even in
//     an envelope that Decode then skips. The one exception is a path
//     element: encoding/json keeps each as a json.RawMessage, so a bad
//     one is an error only once Decode reads an UPDATE (path).
//   - null leaves a string, number or object field as it was, and sets
//     a slice field to nil.
//   - A repeated key decodes again into the same field. Objects merge.
//     Arrays overwrite elements in place, then truncate; a later,
//     longer array re-exposes what the earlier one left behind the
//     length (slot). Capacity never shows, because a slice only grows
//     when its length has reached its capacity.
//   - Strings are unescaped as encoding/json does, and invalid UTF-8
//     becomes U+FFFD.

// envelope is the outer RIS-Live JSON framing.
type envelope struct {
	Type string
	Data message
}

// message is the data payload of a ris_message envelope. Fields the
// pipeline does not consume (id, raw, med, …) are skipped.
type message struct {
	Timestamp float64
	Peer      string
	PeerASN   string
	Type      string
	Host      string
	// Path holds the segments of the last path array, with AS numbers
	// not yet narrowed; PathErr its first bad element.
	Path    []astypes.Segment
	PathErr error
	// Community holds each [ASN, value] pair narrowed to the 16 bits a
	// side that Decode keeps.
	Community     []astypes.Community
	Origin        string
	Announcements []announcement
	Withdrawals   []string
}

type announcement struct {
	NextHop  string
	Prefixes []string
}

// The field names of each object, as the feed spells them.
var (
	envelopeFields     = []string{"type", "data"}
	messageFields      = []string{"timestamp", "peer", "peer_asn", "type", "host", "path", "community", "origin", "announcements", "withdrawals"}
	announcementFields = []string{"next_hop", "prefixes"}
)

// maxDepth is encoding/json's limit on nested arrays and objects.
const maxDepth = 10000

// scanError reports where in the line decoding stopped and why.
type scanError struct {
	off int
	msg string
}

func (e *scanError) Error() string {
	return "offset " + strconv.Itoa(e.off) + ": " + e.msg
}

// decoder is a cursor over the text of one line. Every string it
// returns is a substring of s or a fresh copy, so the caller owns s.
type decoder struct {
	s     string
	i     int
	depth int
}

// parseEnvelope decodes line into env.
func parseEnvelope(line string, env *envelope) error {
	d := decoder{s: line}
	d.ws()
	switch d.peek() {
	case 'n':
		if err := d.literal("null"); err != nil {
			return err
		}
	case '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			name, more, err := d.member(envelopeFields, first)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			switch name {
			case "type":
				err = d.stringInto(&env.Type)
			case "data":
				err = d.message(&env.Data)
			default:
				err = d.skip()
			}
			if err != nil {
				return err
			}
		}
	default:
		return d.mismatch("an object")
	}
	d.ws()
	if d.i != len(d.s) {
		return d.fail("data after the top-level value")
	}
	return nil
}

func (d *decoder) message(m *message) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, more, err := d.member(messageFields, first)
		if err != nil || !more {
			return err
		}
		switch name {
		case "timestamp":
			err = d.floatInto(&m.Timestamp)
		case "peer":
			err = d.stringInto(&m.Peer)
		case "peer_asn":
			err = d.stringInto(&m.PeerASN)
		case "type":
			err = d.stringInto(&m.Type)
		case "host":
			err = d.stringInto(&m.Host)
		case "path":
			err = d.path(m)
		case "community":
			m.Community, err = d.communities(m.Community)
		case "origin":
			err = d.stringInto(&m.Origin)
		case "announcements":
			m.Announcements, err = d.announcements(m.Announcements)
		case "withdrawals":
			m.Withdrawals, err = d.strings(m.Withdrawals)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

func (d *decoder) announcement(a *announcement) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch("an object")
	}
	if err := d.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		name, more, err := d.member(announcementFields, first)
		if err != nil || !more {
			return err
		}
		switch name {
		case "next_hop":
			err = d.stringInto(&a.NextHop)
		case "prefixes":
			a.Prefixes, err = d.strings(a.Prefixes)
		default:
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// path reads a path array into m.Path: each run of numbers becomes a
// SEQUENCE segment, each nested array a SET segment, and null reads as
// AS 0, as a json.RawMessage element reads into a uint32 or []uint32.
// Any other element is only validated, like a RawMessage; the first
// goes to m.PathErr, which Decode reports for an UPDATE.
func (d *decoder) path(m *message) error {
	m.Path, m.PathErr = nil, nil
	if ok, err := d.list(); !ok || err != nil {
		return err
	}
	// One array backs every SEQUENCE run. Without an AS_SET, the commas
	// before the first ']' give its length.
	end := strings.IndexByte(d.s[d.i:], ']')
	if end < 0 {
		end = len(d.s) - d.i
	}
	asns := make([]astypes.ASN, 0, strings.Count(d.s[d.i:d.i+end], ",")+1)
	run := 0 // start of the current run in asns
	for first := true; ; first = false {
		more, err := d.more(']', first)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if d.peek() != '[' {
			v, err := d.pathASN(m)
			if err != nil {
				return err
			}
			asns = append(asns, v)
			continue
		}
		m.Path = appendSequence(m.Path, asns[run:len(asns):len(asns)])
		run = len(asns)
		set := []astypes.ASN{}
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			more, err := d.more(']', first)
			if err != nil {
				return err
			}
			if !more {
				break
			}
			v, err := d.pathASN(m)
			if err != nil {
				return err
			}
			set = append(set, v)
		}
		m.Path = append(m.Path, astypes.Segment{Type: astypes.SegSet, ASNs: set})
	}
	m.Path = appendSequence(m.Path, asns[run:len(asns):len(asns)])
	return nil
}

// appendSequence appends a SEQUENCE segment unless run is empty.
func appendSequence(path []astypes.Segment, run []astypes.ASN) []astypes.Segment {
	if len(run) == 0 {
		return path
	}
	return append(path, astypes.Segment{Type: astypes.SegSequence, ASNs: run})
}

// pathASN reads one AS number of a path: an integer within 2³²−1, or
// null for 0. Any other element is skipped and recorded in m.PathErr.
func (d *decoder) pathASN(m *message) (astypes.ASN, error) {
	start := d.i
	switch c := d.peek(); {
	case c == 'n':
		return 0, d.literal("null")
	case startsNumber(c):
		tok, err := d.number()
		if err != nil {
			return 0, err
		}
		if v, ok := asUint32(tok); ok {
			return astypes.ASN(v), nil
		}
	default:
		if err := d.skip(); err != nil {
			return 0, err
		}
	}
	if m.PathErr == nil {
		m.PathErr = errors.New("rislive: path element " + d.s[start:d.i] + " is not a uint32")
	}
	return 0, nil
}

func (d *decoder) strings(dst []string) ([]string, error) {
	if ok, err := d.list(); !ok || err != nil {
		return nil, err
	}
	for n := 0; ; n++ {
		if more, err := d.more(']', n == 0); err != nil || !more {
			return trim(dst, n), err
		}
		dst = slot(dst, n)
		if err := d.stringInto(&dst[n]); err != nil {
			return nil, err
		}
	}
}

func (d *decoder) announcements(dst []announcement) ([]announcement, error) {
	if ok, err := d.list(); !ok || err != nil {
		return nil, err
	}
	for n := 0; ; n++ {
		if more, err := d.more(']', n == 0); err != nil || !more {
			return trim(dst, n), err
		}
		dst = slot(dst, n)
		if err := d.announcement(&dst[n]); err != nil {
			return nil, err
		}
	}
}

func (d *decoder) communities(dst []astypes.Community) ([]astypes.Community, error) {
	if ok, err := d.list(); !ok || err != nil {
		return nil, err
	}
	for n := 0; ; n++ {
		if more, err := d.more(']', n == 0); err != nil || !more {
			return trim(dst, n), err
		}
		dst = slot(dst, n)
		if err := d.pair(&dst[n]); err != nil {
			return nil, err
		}
	}
}

// pair decodes one community as encoding/json decodes a [2]uint32: it
// skips elements past the second without checking their type, zeroes
// missing ones, and leaves a half given as null as it was.
func (d *decoder) pair(c *astypes.Community) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '[':
	default:
		return d.mismatch("an array")
	}
	if err := d.open(); err != nil {
		return err
	}
	p := [2]uint32{uint32(c.ASN()), uint32(c.Value())}
	n := 0
	for ; ; n++ {
		more, err := d.more(']', n == 0)
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n < len(p) {
			err = d.uint32Into(&p[n])
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
	for ; n < len(p); n++ {
		p[n] = 0
	}
	*c = astypes.NewCommunity(astypes.ASN(p[0]&0xffff), uint16(p[1]&0xffff))
	return nil
}

// slot makes dst[n] addressable when decoding the n-th element of an
// array into dst. Elements below len(dst) are reused, and those below
// cap(dst) come back with whatever an earlier array left there, as
// with reflect.Value.SetLen.
func slot[T any](dst []T, n int) []T {
	switch {
	case n < len(dst):
		return dst
	case n < cap(dst):
		return dst[:n+1]
	case n == 0:
		// Room for a typical feed list in one allocation.
		return make([]T, 1, 4)
	}
	var zero T
	return append(dst, zero)
}

// trim ends the decoding of an n-element array into dst: an empty
// array leaves an empty, non-nil slice.
func trim[T any](dst []T, n int) []T {
	if n == 0 {
		return []T{}
	}
	return dst[:n]
}

// list starts an array value for a slice field: ok is false after a
// null, which sets the field to nil.
func (d *decoder) list() (ok bool, err error) {
	switch d.peek() {
	case 'n':
		return false, d.literal("null")
	case '[':
		return true, d.open()
	}
	return false, d.mismatch("an array")
}

func (d *decoder) stringInto(dst *string) error {
	switch d.peek() {
	case '"':
		raw, plain, err := d.scanString()
		if err != nil {
			return err
		}
		if plain {
			*dst = raw
		} else {
			*dst = unescape(raw)
		}
		return nil
	case 'n':
		return d.literal("null")
	}
	return d.mismatch("a string")
}

func (d *decoder) floatInto(dst *float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	if !startsNumber(d.peek()) {
		return d.mismatch("a number")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	f, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return d.fail("number " + tok + " out of range")
	}
	*dst = f
	return nil
}

func (d *decoder) uint32Into(dst *uint32) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	if !startsNumber(d.peek()) {
		return d.mismatch("a number")
	}
	tok, err := d.number()
	if err != nil {
		return err
	}
	v, ok := asUint32(tok)
	if !ok {
		return d.fail("number " + tok + " is not a uint32")
	}
	*dst = v
	return nil
}

// asUint32 converts a number token that is an integer within 2³²−1;
// JSON forbids leading zeros, so more than ten digits is out of range.
func asUint32(tok string) (uint32, bool) {
	if len(tok) == 0 || len(tok) > 10 {
		return 0, false
	}
	var v uint64
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return uint32(v), v <= 1<<32-1
}

// member advances to the next member of an object opened with open and
// reads its key and colon. It returns the name in names the key
// selects, or "" for a member to skip; more is false once the object
// has closed.
func (d *decoder) member(names []string, first bool) (name string, more bool, err error) {
	if more, err = d.more('}', first); err != nil || !more {
		return "", more, err
	}
	raw, plain, err := d.key()
	if err != nil {
		return "", false, err
	}
	if !plain {
		raw = unescape(raw)
	}
	for _, n := range names {
		if raw == n {
			return n, true, nil
		}
	}
	for _, n := range names {
		// Folding changes the length of a key only outside ASCII.
		if (!plain || len(raw) == len(n)) && strings.EqualFold(raw, n) {
			return n, true, nil
		}
	}
	return "", true, nil
}

// key reads an object key and the colon after it.
func (d *decoder) key() (raw string, plain bool, err error) {
	if d.peek() != '"' {
		return "", false, d.fail("expected an object key")
	}
	if raw, plain, err = d.scanString(); err != nil {
		return "", false, err
	}
	d.ws()
	if d.peek() != ':' {
		return "", false, d.fail("expected ':' after an object key")
	}
	d.i++
	d.ws()
	return raw, plain, nil
}

// open enters the array or object whose opening bracket is at d.i.
func (d *decoder) open() error {
	d.i++
	d.depth++
	if d.depth > maxDepth {
		return d.fail("exceeded max depth")
	}
	return nil
}

// more advances to the next element of the array or object opened with
// open, consuming the comma before it; it returns false after
// consuming the closing bracket end instead.
func (d *decoder) more(end byte, first bool) (bool, error) {
	d.ws()
	switch c := d.peek(); {
	case c == end:
		d.i++
		d.depth--
		return false, nil
	case first:
		return true, nil
	case c == ',':
		d.i++
		d.ws()
		return true, nil
	}
	return false, d.fail("expected ',' or '" + string(end) + "'")
}

// skip validates the value at d.i and moves past it.
func (d *decoder) skip() error {
	switch c := d.peek(); c {
	case '{':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			if more, err := d.more('}', first); err != nil || !more {
				return err
			}
			if _, _, err := d.key(); err != nil {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '[':
		if err := d.open(); err != nil {
			return err
		}
		for first := true; ; first = false {
			if more, err := d.more(']', first); err != nil || !more {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case '"':
		_, _, err := d.scanString()
		return err
	case 't':
		return d.literal("true")
	case 'f':
		return d.literal("false")
	case 'n':
		return d.literal("null")
	}
	_, err := d.number()
	return err
}

// scanString validates the string token at d.i and moves past it. raw
// is the text between the quotes; plain reports that raw is the value
// as it stands, with no escapes and no bytes outside ASCII.
func (d *decoder) scanString() (raw string, plain bool, err error) {
	plain = true
	for j := d.i + 1; j < len(d.s); {
		if plainByte[d.s[j]] {
			j++
			continue
		}
		switch c := d.s[j]; {
		case c == '"':
			raw = d.s[d.i+1 : j]
			d.i = j + 1
			return raw, plain, nil
		case c == '\\':
			plain = false
			if j+1 == len(d.s) {
				j++
				continue
			}
			switch d.s[j+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				j += 2
			case 'u':
				if hex4(d.s[j+2:]) < 0 {
					d.i = j
					return "", false, d.fail(`bad \u escape`)
				}
				j += 6
			default:
				d.i = j
				return "", false, d.fail("bad escape in string")
			}
		case c < ' ':
			d.i = j
			return "", false, d.fail("control character in string")
		default: // beyond ASCII
			plain = false
			j++
		}
	}
	d.i = len(d.s)
	return "", false, d.fail("unterminated string")
}

// plainByte marks the bytes that stand for themselves inside a string.
var plainByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\'
	}
	return t
}()

// hex4 returns the value of the four hex digits that start s, or -1.
func hex4(s string) rune {
	if len(s) < 4 {
		return -1
	}
	var r rune
	for _, c := range []byte(s[:4]) {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return -1
		}
		r = r*16 + rune(c)
	}
	return r
}

// unescape returns the value of a validated string token's text:
// escapes resolved (a \u surrogate pair to one rune, a lone surrogate
// to U+FFFD) and each invalid UTF-8 byte replaced by U+FFFD.
func unescape(s string) string {
	r := 0
	for r < len(s) {
		c := s[r]
		if c == '\\' {
			break
		}
		if c < utf8.RuneSelf {
			r++
			continue
		}
		rr, size := utf8.DecodeRuneInString(s[r:])
		if rr == utf8.RuneError && size == 1 {
			break
		}
		r += size
	}
	if r == len(s) {
		return s
	}
	b := make([]byte, r, len(s)+2*utf8.UTFMax)
	copy(b, s[:r])
	for r < len(s) {
		switch c := s[r]; {
		case c == '\\':
			switch e := s[r+1]; e {
			case 'b':
				b = append(b, '\b')
			case 'f':
				b = append(b, '\f')
			case 'n':
				b = append(b, '\n')
			case 'r':
				b = append(b, '\r')
			case 't':
				b = append(b, '\t')
			case 'u':
				rr := hex4(s[r+2:])
				r += 6
				if utf16.IsSurrogate(rr) {
					if dec := utf16.DecodeRune(rr, nextU4(s[r:])); dec != utf8.RuneError {
						b = utf8.AppendRune(b, dec)
						r += 6
						continue
					}
					rr = utf8.RuneError
				}
				b = utf8.AppendRune(b, rr)
				continue
			default: // '"', '\\', '/'
				b = append(b, e)
			}
			r += 2
		case c < utf8.RuneSelf:
			b = append(b, c)
			r++
		default:
			rr, size := utf8.DecodeRuneInString(s[r:])
			b = utf8.AppendRune(b, rr)
			r += size
		}
	}
	return string(b)
}

// nextU4 returns the rune of a \uXXXX escape at the start of s, or -1.
func nextU4(s string) rune {
	if len(s) < 6 || s[0] != '\\' || s[1] != 'u' {
		return -1
	}
	return hex4(s[2:])
}

// number reads a number token and returns its text.
func (d *decoder) number() (string, error) {
	start, j := d.i, d.i
	if j < len(d.s) && d.s[j] == '-' {
		j++
	}
	switch {
	case j < len(d.s) && d.s[j] == '0':
		j++
	case j < len(d.s) && '1' <= d.s[j] && d.s[j] <= '9':
		j = digits(d.s, j+1)
	default:
		d.i = j
		return "", d.fail("invalid character looking for a value")
	}
	if j < len(d.s) && d.s[j] == '.' {
		if j+1 == len(d.s) || !isDigit(d.s[j+1]) {
			d.i = j + 1
			return "", d.fail("expected a digit after the decimal point")
		}
		j = digits(d.s, j+1)
	}
	if j < len(d.s) && (d.s[j] == 'e' || d.s[j] == 'E') {
		j++
		if j < len(d.s) && (d.s[j] == '+' || d.s[j] == '-') {
			j++
		}
		if j == len(d.s) || !isDigit(d.s[j]) {
			d.i = j
			return "", d.fail("expected a digit in the exponent")
		}
		j = digits(d.s, j)
	}
	d.i = j
	return d.s[start:j], nil
}

// digits returns the index of the first non-digit in s at or after j.
func digits(s string, j int) int {
	for j < len(s) && isDigit(s[j]) {
		j++
	}
	return j
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func startsNumber(c byte) bool { return c == '-' || isDigit(c) }

func (d *decoder) literal(lit string) error {
	if !strings.HasPrefix(d.s[d.i:], lit) {
		return d.fail("invalid literal")
	}
	d.i += len(lit)
	return nil
}

func (d *decoder) ws() {
	for d.i < len(d.s) {
		if c := d.s[d.i]; c > ' ' || (c != ' ' && c != '\t' && c != '\n' && c != '\r') {
			return
		}
		d.i++
	}
}

// peek returns the byte at d.i, or 0 at the end of the line.
func (d *decoder) peek() byte {
	if d.i < len(d.s) {
		return d.s[d.i]
	}
	return 0
}

func (d *decoder) fail(msg string) error { return &scanError{off: d.i, msg: msg} }

// mismatch reports a value of the wrong type for its field.
func (d *decoder) mismatch(want string) error {
	if d.i == len(d.s) {
		return d.fail("unexpected end of input")
	}
	return d.fail("expected " + want)
}
