package store

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"placeless/internal/sig"
)

// failingWriter is the interposing writer for crash-consistency
// sweeps: it passes bytes through until the budget is exhausted, then
// fails — simulating a power cut at an exact byte offset in the
// append stream.
type failingWriter struct {
	w      io.Writer
	budget int
}

var errPowerCut = fmt.Errorf("simulated power cut")

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.budget <= 0 {
		return 0, errPowerCut
	}
	if len(p) > f.budget {
		n, _ := f.w.Write(p[:f.budget])
		f.budget -= n
		return n, errPowerCut
	}
	n, err := f.w.Write(p)
	f.budget -= n
	return n, err
}

// TestCrashConsistencySweep is the power-cut-at-every-offset pattern:
// an append stream of two records is cut after N bytes for every N
// across the record boundary, and for each truncation point the store
// must open without error, recover exactly the records that were
// fully durable, serve them byte-exact, and accept new appends.
func TestCrashConsistencySweep(t *testing.T) {
	p1 := []byte("crash-sweep first record")
	p2 := []byte("crash-sweep second record, slightly longer")
	sig1, sig2 := sig.Of(p1), sig.Of(p2)
	rec1, rec2 := encodeRecord(p1, sig1), encodeRecord(p2, sig2)
	stream := append(append([]byte(nil), rec1...), rec2...)

	for n := 0; n <= len(stream); n++ {
		n := n
		t.Run(fmt.Sprintf("cut=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			f, err := os.Create(filepath.Join(dir, segmentName(1)))
			if err != nil {
				t.Fatal(err)
			}
			fw := &failingWriter{w: f, budget: n}
			_, werr := fw.Write(stream)
			if n < len(stream) && werr == nil {
				t.Fatal("failing writer did not fail")
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			s, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open after cut at %d: %v", n, err)
			}
			defer s.Close()

			wantFirst := n >= len(rec1)
			wantSecond := n >= len(stream)
			if got, ok := s.GetBlob(sig1); ok != wantFirst {
				t.Fatalf("first record served=%v, want %v", ok, wantFirst)
			} else if ok && !bytes.Equal(got, p1) {
				t.Fatalf("first record corrupted: %q", got)
			}
			if got, ok := s.GetBlob(sig2); ok != wantSecond {
				t.Fatalf("second record served=%v, want %v", ok, wantSecond)
			} else if ok && !bytes.Equal(got, p2) {
				t.Fatalf("second record corrupted: %q", got)
			}
			wantBlobs := 0
			if wantFirst {
				wantBlobs++
			}
			if wantSecond {
				wantBlobs++
			}
			if rec.Blobs != wantBlobs {
				t.Fatalf("recovery indexed %d blobs, want %d", rec.Blobs, wantBlobs)
			}
			durable := 0
			if wantFirst {
				durable = len(rec1)
			}
			if wantSecond {
				durable = len(stream)
			}
			if rec.LostBlobBytes != int64(n-durable) {
				t.Fatalf("lost bytes = %d at cut %d, want %d", rec.LostBlobBytes, n, n-durable)
			}

			// The tier must keep working after any cut: append, read
			// back, and survive one more reopen.
			p3 := []byte("post-cut append")
			sig3, err := s.PutBlob(p3)
			if err != nil {
				t.Fatal(err)
			}
			if got, ok := s.GetBlob(sig3); !ok || !bytes.Equal(got, p3) {
				t.Fatal("append after cut not readable")
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2, rec2nd, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Close()
			if rec2nd.LostBlobBytes != 0 {
				t.Fatalf("second open after repair still lost %d bytes", rec2nd.LostBlobBytes)
			}
			if got, ok := s2.GetBlob(sig3); !ok || !bytes.Equal(got, p3) {
				t.Fatal("post-cut append lost across reopen")
			}
		})
	}
}

// TestCrashConsistencyMetaSweep applies the same power-cut sweep to
// the meta log: cut the byte stream of two JSON lines at every offset
// across the first line's boundary; the first entry must survive iff
// its newline was durable, and replay must never error or resurrect
// the second.
func TestCrashConsistencyMetaSweep(t *testing.T) {
	// Build a reference store to obtain the exact on-disk byte stream.
	ref := t.TempDir()
	s, _ := openT(t, ref)
	sg, err := s.PutBlob([]byte("meta-sweep blob"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "d1", User: "u", Sig: sg, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.PutEntry(EntryMeta{Doc: "d2", User: "u", Sig: sg, Gen: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	stream, err := os.ReadFile(filepath.Join(ref, metaLogName))
	if err != nil {
		t.Fatal(err)
	}
	segBytes, err := os.ReadFile(filepath.Join(ref, segmentName(1)))
	if err != nil {
		t.Fatal(err)
	}
	line1 := bytes.IndexByte(stream, '\n') + 1
	if line1 <= 0 {
		t.Fatal("no newline in reference meta log")
	}

	for n := line1 - 4; n <= len(stream); n++ {
		n := n
		t.Run(fmt.Sprintf("cut=%d", n), func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, segmentName(1)), segBytes, 0o644); err != nil {
				t.Fatal(err)
			}
			f, err := os.Create(filepath.Join(dir, metaLogName))
			if err != nil {
				t.Fatal(err)
			}
			fw := &failingWriter{w: f, budget: n}
			fw.Write(stream)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			s2, rec, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("open after meta cut at %d: %v", n, err)
			}
			defer s2.Close()
			_, ok1 := s2.GetEntry("d1", "u")
			if want := n >= line1; ok1 != want {
				t.Fatalf("first entry survived=%v, want %v", ok1, want)
			}
			_, ok2 := s2.GetEntry("d2", "u")
			if want := n >= len(stream); ok2 != want {
				t.Fatalf("second entry survived=%v, want %v", ok2, want)
			}
			if n < len(stream) && rec.LostMetaBytes == 0 && n > line1 {
				t.Fatal("mid-line cut not reported as lost meta bytes")
			}
		})
	}
}
