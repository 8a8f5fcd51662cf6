package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"placeless/internal/cluster"
	"placeless/internal/obs"
)

// daemon serves mux on a loopback test server and returns its
// host:port, the form -http takes.
func daemon(t *testing.T, mux *http.ServeMux) string {
	t.Helper()
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return strings.TrimPrefix(ts.URL, "http://")
}

func TestHTTPStatsDropsCommentsAndBuckets(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, `# HELP placeless_cache_hits_total Reads served from the cache.
# TYPE placeless_cache_hits_total counter
placeless_cache_hits_total 4812
placeless_reads_total{verdict="hit"} 4812

# TYPE placeless_read_duration_seconds histogram
placeless_read_duration_seconds_bucket{le="0.001"} 4000
placeless_read_duration_seconds_bucket{le="+Inf"} 4914
placeless_read_duration_seconds_sum 1.5
placeless_read_duration_seconds_count 4914
`)
	})
	var out bytes.Buffer
	if err := httpStats(daemon(t, mux), &out); err != nil {
		t.Fatal(err)
	}
	want := `placeless_cache_hits_total 4812
placeless_reads_total{verdict="hit"} 4812
placeless_read_duration_seconds_sum 1.5
placeless_read_duration_seconds_count 4914
`
	if out.String() != want {
		t.Fatalf("stats output:\n%s\nwant:\n%s", out.String(), want)
	}
}

func TestHTTPStatsReportsHTTPErrors(t *testing.T) {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "scrape refused", http.StatusServiceUnavailable)
	})
	err := httpStats(daemon(t, mux), &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "503") || !strings.Contains(err.Error(), "scrape refused") {
		t.Fatalf("err = %v, want the status and body", err)
	}
}

// TestHTTPTraceRendersRing drives a real Observer's /debug/traces, so
// the renderer and the endpoint agree on the JSON shape.
func TestHTTPTraceRendersRing(t *testing.T) {
	o := obs.NewObserver()
	at := time.Date(2026, 1, 2, 9, 30, 0, 0, time.Local)
	o.ObserveRead(obs.ReadTrace{Time: at, Doc: "report", User: "kim", Verdict: obs.VerdictMiss,
		Cause: obs.CauseExternal, Total: 18 * time.Millisecond,
		BitFetch: 12 * time.Millisecond, Universal: 4100 * time.Microsecond, Personal: 1234567 * time.Nanosecond})
	o.ObserveRead(obs.ReadTrace{Time: at.Add(time.Second), Doc: "report", User: "kim", Verdict: obs.VerdictHit,
		Total: 210 * time.Microsecond, Lookup: time.Microsecond, Verify: 12 * time.Microsecond})
	o.ObserveRead(obs.ReadTrace{Time: at.Add(2 * time.Second), Doc: "gone", User: "kim", Verdict: obs.VerdictError,
		Err: "no such document", Total: 3 * time.Microsecond})
	mux := http.NewServeMux()
	o.Mount(mux)

	var out bytes.Buffer
	if err := httpTrace(daemon(t, mux), 2, &out); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	want := []string{
		"3 traces recorded; showing 2",
		`09:30:02.000  error     -          gone/kim  total=3µs err="no such document"`,
		"09:30:01.000  hit       -          report/kim  total=210µs shard_lookup=1µs verify=12µs",
	}
	if len(lines) != len(want) {
		t.Fatalf("trace output:\n%s", out.String())
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Fatalf("line %d:\n got %q\nwant %q", i, lines[i], want[i])
		}
	}

	out.Reset()
	if err := httpTrace(daemon(t, mux), 3, &out); err != nil {
		t.Fatal(err)
	}
	if got, want := strings.Split(out.String(), "\n")[3],
		"09:30:00.000  miss      external   report/kim  total=18ms bit_fetch=12ms universal=4.1ms personal=1.2ms"; got != want {
		t.Fatalf("miss line:\n got %q\nwant %q", got, want)
	}
}

func TestRingOnline(t *testing.T) {
	var query string
	mux := http.NewServeMux()
	mux.HandleFunc("/ring", func(w http.ResponseWriter, r *http.Request) {
		query = r.URL.RawQuery
		// The shape plcached's /ring handler encodes.
		out := map[string]interface{}{
			"replicas": 2,
			"vnodes":   128,
			"nodes": []cluster.NodeInfo{
				{Name: "cache-a:7999", State: "connected", Share: 0.302, Entries: 1201},
				{Name: "cache-b:7999", State: "disconnected", Share: 0.698, Entries: 1188},
			},
		}
		if doc := r.URL.Query().Get("doc"); doc != "" {
			out["doc"], out["user"] = doc, r.URL.Query().Get("user")
			out["owners"] = []string{"cache-b:7999", "cache-a:7999"}
		}
		_ = json.NewEncoder(w).Encode(out)
	})
	addr := daemon(t, mux)

	var out bytes.Buffer
	if err := ringCmd(addr, []string{"report q3", "amy"}, &out); err != nil {
		t.Fatal(err)
	}
	if query != "doc=report+q3&user=amy" {
		t.Fatalf("query = %q", query)
	}
	want := `ring: 2 nodes, 2 replicas, 128 vnodes/node
cache-a:7999             connected    share  30.2%  entries 1201
cache-b:7999             disconnected share  69.8%  entries 1188
owners(report q3, amy): cache-b:7999, cache-a:7999
`
	if out.String() != want {
		t.Fatalf("ring output:\n%s\nwant:\n%s", out.String(), want)
	}

	out.Reset()
	if err := ringCmd(addr, nil, &out); err != nil {
		t.Fatal(err)
	}
	if query != "" || strings.Contains(out.String(), "owners") {
		t.Fatalf("keyless ring: query %q, output:\n%s", query, out.String())
	}
}

func TestRingOffline(t *testing.T) {
	nodes := []string{"cache-a:7999", "cache-b:7999", "cache-c:7999", "cache-a:7999"}
	var out bytes.Buffer
	err := ringCmd("", []string{"-nodes", strings.Join(nodes, ","), "-replicas", "3", "-vnodes", "64", "report-q3", "amy"}, &out)
	if err != nil {
		t.Fatal(err)
	}
	// The plan must match the ring plcached builds from the same list:
	// the repeated address joins as its #1-suffixed member.
	ring := cluster.NewRing(3, 64)
	for _, n := range []string{"cache-a:7999", "cache-b:7999", "cache-c:7999", "cache-a:7999#1"} {
		ring.Add(n)
	}
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	if len(lines) != 6 || lines[0] != "ring: 4 nodes, 3 replicas, 64 vnodes/node" {
		t.Fatalf("ring output:\n%s", out.String())
	}
	total := 0.0
	shares := ring.Shares()
	for i, name := range ring.Nodes() {
		var share float64
		if _, err := fmt.Sscanf(strings.TrimSpace(strings.TrimPrefix(lines[1+i], name)), "share %f%%", &share); err != nil {
			t.Fatalf("node line %q: %v", lines[1+i], err)
		}
		if math.Abs(share-100*shares[name]) > 0.05 {
			t.Fatalf("%s: share %.1f%%, ring says %.2f%%", name, share, 100*shares[name])
		}
		total += share
	}
	if math.Abs(total-100) > 0.3 {
		t.Fatalf("shares add to %.1f%%", total)
	}
	wantOwners := "owners(report-q3, amy): " + strings.Join(ring.Owners(cluster.Key("report-q3", "amy")), ", ")
	if lines[5] != wantOwners {
		t.Fatalf("owners line %q, want %q", lines[5], wantOwners)
	}
}

func TestRingNeedsASource(t *testing.T) {
	if err := ringCmd("", nil, &bytes.Buffer{}); err == nil || !strings.Contains(err.Error(), "-nodes") {
		t.Fatalf("err = %v", err)
	}
	if err := ringCmd("", []string{"-nodes", "a", "d", "u", "extra"}, &bytes.Buffer{}); err == nil {
		t.Fatal("three positional arguments accepted")
	}
	if err := ringCmd("", []string{"-bogus"}, &bytes.Buffer{}); err == nil {
		t.Fatal("unknown flag accepted")
	}
}
