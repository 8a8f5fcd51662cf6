package server

import (
	"bufio"
	"bytes"
	"fmt"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"placeless/internal/clock"
	"placeless/internal/docspace"
	"placeless/internal/repo"
	"placeless/internal/sig"
	"placeless/internal/simnet"
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

// FuzzProtocolRoundTrip checks the Match struct framing introduced for
// OpFind: static property values are arbitrary user strings, so tabs,
// newlines, empty values, and multi-byte UTF-8 must survive a full
// frameConn encode/decode (the pre-struct format packed matches into a
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
		want := Response{
			ID:         42,
			Body:       []byte(value),
			NotifyDoc:  doc,
			NotifyUser: value,
			Matches:    matches,
		}

		// Drive the real framing layer over an in-memory pipe, exactly
		// as serverConn.send / Client.readLoop do over TCP.
		a, b := net.Pipe()
		defer a.Close()
		defer b.Close()
		fcA, fcB := newFrameConn(a), newFrameConn(b)
		sendErr := make(chan error, 1)
		go func() { sendErr <- fcA.send(&want, time.Second) }()
		var got Response
		if err := fcB.dec.Decode(&got); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if err := <-sendErr; err != nil {
			t.Fatalf("send: %v", err)
		}

		if got.ID != want.ID || got.NotifyDoc != want.NotifyDoc || got.NotifyUser != want.NotifyUser {
			t.Fatalf("header fields corrupted: got %+v want %+v", got, want)
		}
		if string(got.Body) != string(want.Body) {
			t.Fatalf("body corrupted: %q != %q", got.Body, want.Body)
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

// FuzzProtocolV2RoundTrip drives the hand-written v2 codecs with
// arbitrary field values: every encodable request and response must
// decode back to the same fields, hot path and gob-in-frame alike.
func FuzzProtocolV2RoundTrip(f *testing.F) {
	f.Add(uint64(1), uint8(0), "doc", "user", "value", []byte("body"), uint8(1), int64(5), int64(9))
	f.Add(uint64(42), uint8(1), "d\tmid", "u\nnl", "значение", []byte{0x02, 0x00, 0xff}, uint8(0), int64(-1), int64(0))
	f.Add(uint64(7), uint8(7), "", "", "", []byte{}, uint8(255), int64(1<<40), int64(-7))
	f.Add(uint64(1<<63), uint8(12), "δοc", "ユーザー", "v", bytes.Repeat([]byte("x"), 3000), uint8(3), int64(0), int64(1))
	f.Fuzz(func(t *testing.T, id uint64, op8 uint8, doc, user, value string, body []byte, cach uint8, cost, expiry int64) {
		if id == 0 {
			id = 1 // ID 0 is reserved for pushes; requests reject it
		}
		op := Op(int(op8) % (int(OpFind) + 1))
		req := &Request{ID: id, Op: op, Doc: doc, User: user,
			Personal: op8%2 == 0, Property: value, Value: value, Body: body}
		ef, err := encodeRequestFrame(req)
		if err != nil {
			t.Fatalf("encode request %v: %v", op, err)
		}
		got, err := readRequestFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, ef))))
		if err != nil {
			t.Fatalf("decode request %v: %v", op, err)
		}
		if got.ID != req.ID || got.Op != req.Op || got.Doc != req.Doc || got.User != req.User {
			t.Fatalf("request corrupted: got %+v want %+v", got, req)
		}
		// Hot ops carry only the fields their codec defines: Read and
		// Subscribe are doc+user, Write adds the body; gob ops carry all.
		if op == OpWrite || (op != OpRead && op != OpSubscribe) {
			if !bytes.Equal(got.Body, req.Body) {
				t.Fatalf("request body corrupted: got %d bytes want %d", len(got.Body), len(req.Body))
			}
		}
		if op != OpRead && op != OpWrite && op != OpSubscribe {
			if got.Personal != req.Personal || got.Property != req.Property || got.Value != req.Value {
				t.Fatalf("gob request corrupted: got %+v want %+v", got, req)
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
			rf, err := encodeResponseFrame(OpRead, resp)
			if err != nil {
				t.Fatalf("encode read response: %v", err)
			}
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
		pf, err := encodeResponseFrame(opInvalidate, &Response{NotifyDoc: doc, NotifyUser: user})
		if err != nil {
			t.Fatalf("encode push: %v", err)
		}
		pgot, err := readResponseFrame(bufio.NewReader(bytes.NewReader(frameBytes(t, pf))))
		if err != nil {
			t.Fatalf("decode push: %v", err)
		}
		if pgot.ID != 0 || pgot.NotifyDoc != doc || pgot.NotifyUser != user {
			t.Fatalf("push corrupted: got %+v", pgot)
		}

		// Error responses carry the string as payload; empty means
		// success, so skip that case.
		if value != "" {
			ef2, err := encodeResponseFrame(op, &Response{ID: id, Err: value})
			if err != nil {
				t.Fatalf("encode error response: %v", err)
			}
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
	valid, err := encodeRequestFrame(&Request{ID: 3, Op: OpRead, Doc: "d", User: "u"})
	if err != nil {
		f.Fatal(err)
	}
	vb := frameBytes(f, valid)
	f.Add(vb)
	f.Add(vb[:len(vb)-1])
	f.Add(append(append([]byte{}, vb...), 0xde, 0xad))
	f.Add([]byte{ProtoV2, 0x00, 0x00, 0x00, 0xff, 0xff, 0xff, 0xff})
	f.Add(bytes.Repeat([]byte{0xff}, 64))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		_, _ = readRequestFrame(bufio.NewReader(bytes.NewReader(data)))
		_, _ = readResponseFrame(bufio.NewReader(bytes.NewReader(data)))
	})
}

// FuzzProtocolCrossVersion runs one v1 (gob) client and one v2 (binary)
// client against the same live server and requires identical observable
// behavior for arbitrary document content and property values — the
// interop bar for the version negotiation story.
func FuzzProtocolCrossVersion(f *testing.F) {
	clk := clock.NewVirtual(epoch)
	backing := repo.NewMem("srv", clk, simnet.NewPath("loop", 1))
	space := docspace.New(clk, repo.NewDMS("dms", clk, simnet.NewPath("loop", 2)))
	srv := New(space, backing)
	done := make(chan error, 1)
	go func() { done <- srv.ListenAndServe("127.0.0.1:0") }()
	var addr string
	for i := 0; i < 200; i++ {
		if a := srv.Addr(); a != nil {
			addr = a.String()
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	if addr == "" {
		f.Fatal("server did not start")
	}
	v1c, err := Dial(addr, WithProtocolVersion(ProtoV1))
	if err != nil {
		f.Fatal(err)
	}
	v2c, err := Dial(addr)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() {
		v1c.Close()
		v2c.Close()
		srv.Close()
		<-done
	})
	if v1c.ProtocolVersion() != 1 || v2c.ProtocolVersion() != 2 {
		f.Fatalf("protocol split broken: v1=%d v2=%d", v1c.ProtocolVersion(), v2c.ProtocolVersion())
	}
	var ctr atomic.Uint64

	f.Add([]byte("plain content"), "caching", false)
	f.Add([]byte{0x02, 0x00, 0xff, 0x7f}, "tab\tvalue", true)
	f.Add([]byte{}, "", false)
	f.Add(bytes.Repeat([]byte("big"), 40000), "значение\n", true)
	f.Fuzz(func(t *testing.T, body []byte, value string, personal bool) {
		doc := fmt.Sprintf("xdoc-%d", ctr.Add(1))
		// Create over v2, read back over both: byte-identical.
		if err := v2c.CreateDocument(doc, "eyal", body); err != nil {
			t.Fatal(err)
		}
		d1, r1, e1 := v1c.Read(doc, "eyal")
		d2, r2, e2 := v2c.Read(doc, "eyal")
		if e1 != nil || e2 != nil || !bytes.Equal(d1, d2) || !bytes.Equal(d1, body) {
			t.Fatalf("read split: v1=(%d bytes,%v) v2=(%d bytes,%v) want %d bytes",
				len(d1), e1, len(d2), e2, len(body))
		}
		// v2 carries the origin's signature, v1 hashes on decode: the
		// two must agree with the body.
		if want := sig.Of(body); r1.Signature != want || r2.Signature != want {
			t.Fatalf("signature split: v1=%v v2=%v want %v", r1.Signature, r2.Signature, want)
		}
		// Write over v1, read over v2.
		upd := append(append([]byte{}, body...), "-updated"...)
		if err := v1c.Write(doc, "eyal", upd); err != nil {
			t.Fatal(err)
		}
		if d2, _, err := v2c.Read(doc, "eyal"); err != nil || !bytes.Equal(d2, upd) {
			t.Fatalf("v1 write not visible over v2: %d bytes, %v", len(d2), err)
		}
		// Static property attached over v1, searched over both: the
		// arbitrary value string must survive both framings identically.
		if err := v1c.AttachStatic(doc, "eyal", personal, "xkey", value); err != nil {
			t.Fatal(err)
		}
		m1, e1x := v1c.Find("eyal", "xkey", value)
		m2, e2x := v2c.Find("eyal", "xkey", value)
		if e1x != nil || e2x != nil {
			t.Fatalf("find errors: %v / %v", e1x, e2x)
		}
		for _, ms := range [][]Match{m1, m2} {
			sort.Slice(ms, func(i, j int) bool { return ms[i].Doc < ms[j].Doc })
		}
		if !reflect.DeepEqual(m1, m2) {
			t.Fatalf("find split: v1=%v v2=%v", m1, m2)
		}
		found := false
		for _, m := range m1 {
			if m.Doc == doc && m.Value == value {
				found = true
			}
		}
		if !found {
			t.Fatalf("attached value %q not found: %v", value, m1)
		}
		// Error parity: both protocols surface the same error string.
		_, _, e1 = v1c.Read(doc+"-missing", "eyal")
		_, _, e2 = v2c.Read(doc+"-missing", "eyal")
		if e1 == nil || e2 == nil || e1.Error() != e2.Error() {
			t.Fatalf("error split: v1=%v v2=%v", e1, e2)
		}
	})
}
