package server

import (
	"bufio"
	"bytes"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"placeless/internal/sig"
)

// FuzzParsePropertySpec checks the spec parser never panics and that
// every accepted spec yields a usable property whose name is non-empty.
func FuzzParsePropertySpec(f *testing.F) {
	for _, seed := range []string{
		"spell-correct", "spell-correct:5", "translate-fr", "uppercase:2",
		"summarize:3:10", "watermark:eyal", "qos:250:50", "rot13",
		"", "unknown", "summarize", "qos:x:y", ":::", "summarize:-1",
		"watermark:", "qos:250:0.5", strings.Repeat("a:", 50),
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		p, err := ParsePropertySpec(spec)
		if err != nil {
			return
		}
		if p == nil || p.Name() == "" {
			t.Fatalf("accepted spec %q produced unusable property", spec)
		}
		// Accepted properties must have a well-formed event set.
		for _, k := range p.Events() {
			if k.String() == "" {
				t.Fatalf("spec %q: bad event kind", spec)
			}
		}
	})
}

// FuzzProtocolRoundTrip checks the Match framing of the OpFind
// response: static property values are arbitrary user strings, so
// tabs, newlines, empty values, and multi-byte UTF-8 must survive a
// full encode/write/decode (an older format packed matches into a
// tab-separated string and corrupted exactly these inputs).
func FuzzProtocolRoundTrip(f *testing.F) {
	f.Add("doc", "value", "universal", uint8(1))
	f.Add("d\tmid", "tab\tseparated", "personal", uint8(2))
	f.Add("d\nnl", "line\none\nline two", "universal", uint8(3))
	f.Add("", "", "", uint8(0))
	f.Add("δοc", "значение → 値", "universal", uint8(5))
	f.Add("d", "trailing\t\n", "personal", uint8(7))
	f.Fuzz(func(t *testing.T, doc, value, level string, n uint8) {
		matches := make([]Match, int(n)%5)
		for i := range matches {
			matches[i] = Match{
				Doc:   doc + strings.Repeat("x", i),
				Value: value,
				Level: level,
			}
		}
		want := &Response{ID: 42, Matches: matches}
		frame := encodeResponseFrame(OpFind, want)

		// Drive the real writer and decoder over an in-memory pipe,
		// exactly as the server and Client.readLoop do over TCP.
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		fw := newFrameWriter(a, time.Second, nil, nil, nil)
		defer fw.close()
		sendErr := make(chan error, 1)
		go func() { sendErr <- fw.send(frame) }()
		got, err := readResponseFrame(bufio.NewReader(b))
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("send: %v", err)
		}

		if got.ID != want.ID {
			t.Fatalf("call ID corrupted: got %d want %d", got.ID, want.ID)
		}
		if len(got.Matches) != len(want.Matches) {
			t.Fatalf("match count %d != %d", len(got.Matches), len(want.Matches))
		}
		for i, m := range got.Matches {
			if m != want.Matches[i] {
				t.Fatalf("match %d corrupted: %+v != %+v", i, m, want.Matches[i])
			}
		}
	})
}

// FuzzProtocolV2RoundTrip drives the hand-written codecs with arbitrary
// field values: every op's request and response must decode back to
// the fields its layout defines.
func FuzzProtocolV2RoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), "doc", "user", "value", []byte("body"), uint8(1), int64(5), int64(9))
	f.Add(uint64(42), uint8(1), "d\tmid", "u\nnl", "значение", []byte{0x02, 0x00, 0xff}, uint8(0), int64(-1), int64(0))
	f.Add(uint64(7), uint8(7), "", "", "", []byte{}, uint8(255), int64(1<<40), int64(-7))
	f.Add(uint64(1<<63), uint8(12), "δοc", "ユーザー", "v", bytes.Repeat([]byte("x"), 3000), uint8(3), int64(0), int64(1))
	f.Fuzz(func(t *testing.T, id uint64, op8 uint8, doc, user, value string, body []byte, cach uint8, cost, expiry int64) {
		if id == 0 {
			id = 1 // ID 0 is reserved for pushes; requests reject it
		}
		// Read and Subscribe carry doc+user, Write adds the body, and
		// every other op carries every request field.
		for op := OpRead; op <= OpFind; op++ {
			req := &Request{ID: id, Op: op, Doc: doc, User: user,
				Personal: op8%2 == 0, Property: user + value, Value: value, Body: body}
			ef := encodeRequestFrame(req)
			got, err := readRequestFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, ef))))
			if err != nil {
				t.Fatalf("decode request %v: %v", op, err)
			}
			want := &Request{ID: id, Op: op, Doc: doc, User: user}
			if op != OpRead && op != OpSubscribe {
				want.Body = body
			}
			if op != OpRead && op != OpWrite && op != OpSubscribe {
				want.Personal, want.Property, want.Value = req.Personal, req.Property, req.Value
			}
			if got.ID != want.ID || got.Op != want.Op || got.Doc != want.Doc || got.User != want.User ||
				got.Personal != want.Personal || got.Property != want.Property || got.Value != want.Value ||
				!bytes.Equal(got.Body, want.Body) {
				t.Fatalf("request %v corrupted: got %+v want %+v", op, got, want)
			}
		}

		// Every other op's response: the op's own field survives and the
		// rest are dropped. Counts of zero decode as nil, whether a nil
		// or an empty value was sent (cach picks nil, empty or filled).
		var stats map[string]int64
		var actives []string
		var matches []Match
		switch cach % 3 {
		case 1:
			stats, actives, matches = map[string]int64{}, []string{}, []Match{}
		case 2:
			stats = map[string]int64{doc: cost, user: expiry, value: int64(id)}
			actives = []string{doc, user, value}
			matches = []Match{{Doc: doc, Value: value, Level: user}, {}}
		}
		for op := OpWrite; op <= OpFind; op++ {
			in := &Response{ID: id, Stats: stats, Actives: actives, Text: value, Matches: matches}
			want := &Response{ID: id}
			switch {
			case op == OpStats && len(stats) > 0:
				want.Stats = stats
			case op == OpListActives && len(actives) > 0:
				want.Actives = actives
			case op == OpDescribe:
				want.Text = value
			case op == OpFind && len(matches) > 0:
				want.Matches = matches
			}
			rf := encodeResponseFrame(op, in)
			got, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, rf))))
			if err != nil {
				t.Fatalf("decode %v response: %v", op, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v response corrupted: got %+v want %+v", op, got, want)
			}
		}

		// Read response: raw metadata + signature + body, inline and
		// streamed. Cacheability is a one-byte enum on the wire, hence
		// the uint8 input; the signature bytes come from value, so they
		// are arbitrary (zero included).
		var sg sig.Signature
		copy(sg[:], value)
		for _, streamed := range []bool{false, true} {
			resp := &Response{ID: id, Body: body, Cacheability: int(cach),
				CostNanos: cost, ExpiryUnixNanos: expiry, signature: sg}
			if streamed {
				resp.bodyStream, resp.bodyLen = bytes.NewReader(body), int64(len(body))
			}
			rf := encodeResponseFrame(OpRead, resp)
			rgot, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, rf))))
			if err != nil {
				t.Fatalf("decode read response (streamed %v): %v", streamed, err)
			}
			if rgot.ID != id || !bytes.Equal(rgot.Body, body) || rgot.Cacheability != int(cach) ||
				rgot.CostNanos != cost || rgot.ExpiryUnixNanos != expiry || rgot.signature != sg {
				t.Fatalf("read response corrupted (streamed %v): got %+v want %+v", streamed, rgot, resp)
			}
		}

		// Invalidation push: doc/user strings with arbitrary content.
		pf := encodeResponseFrame(opInvalidate, &Response{NotifyDoc: doc, NotifyUser: user})
		pgot, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, pf))))
		if err != nil {
			t.Fatalf("decode push: %v", err)
		}
		if pgot.ID != 0 || pgot.NotifyDoc != doc || pgot.NotifyUser != user {
			t.Fatalf("push corrupted: got %+v", pgot)
		}

		// Error responses carry the string as payload under any op;
		// empty means success, so skip that case.
		if op := Op(int(op8) % (int(OpFind) + 1)); value != "" {
			ef2 := encodeResponseFrame(op, &Response{ID: id, Err: value})
			egot, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, ef2))))
			if err != nil {
				t.Fatalf("decode error response: %v", err)
			}
			if egot.ID != id || egot.Err != value {
				t.Fatalf("error response corrupted: got %+v", egot)
			}
		}
	})
}

// FuzzV2FrameDecode feeds arbitrary byte streams to the v2 frame
// decoders: they must reject garbage with an error — never panic, hang,
// or allocate per an attacker-controlled length prefix.
func FuzzV2FrameDecode(f *testing.F) {
	valid := encodeRequestFrame(&Request{ID: 3, Op: OpRead, Doc: "d", User: "u"})
	vb := frameBytes(f, valid)
	f.Add(vb)
	f.Add(vb[:len(vb)-1])
	f.Add(append(append([]byte{}, vb...), 0xde, 0xad))
	f.Add([]byte{wireVersion, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = readRequestFrame(bufio.NewReader(bytes.NewReader(data)))
		_, _ = readResponseFrame(bufio.NewReader(bytes.NewReader(data)))
	})
}
