package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"placeless/internal/obs"
)

// httpClient bounds every observability request, so a wedged daemon
// fails the command instead of hanging it.
var httpClient = &http.Client{Timeout: 10 * time.Second}

// httpGet fetches path (with its query) from the daemon at addr and
// returns the body of a 200 response.
func httpGet(addr, path string) ([]byte, error) {
	resp, err := httpClient.Get("http://" + addr + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s: %s", path, resp.Status, strings.TrimSpace(string(body)))
	}
	return body, nil
}

// httpStats renders the daemon's /metrics one sample per line,
// dropping comments and histogram buckets (the _sum and _count
// samples stay).
func httpStats(addr string, w io.Writer) error {
	body, err := httpGet(addr, "/metrics")
	if err != nil {
		return err
	}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if name, _, _ := strings.Cut(line, "{"); strings.HasSuffix(name, "_bucket") {
			continue
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return sc.Err()
}

// httpTrace prints the daemon's last n read traces from /debug/traces,
// newest first: time, verdict, miss cause ("-" when none), doc/user,
// total latency, then every stage that ran.
func httpTrace(addr string, n int, w io.Writer) error {
	body, err := httpGet(addr, fmt.Sprintf("/debug/traces?n=%d", n))
	if err != nil {
		return err
	}
	var dump obs.TraceDump
	if err := json.Unmarshal(body, &dump); err != nil {
		return fmt.Errorf("decode /debug/traces: %w", err)
	}
	fmt.Fprintf(w, "%d traces recorded; showing %d\n", dump.Total, len(dump.Traces))
	for _, tr := range dump.Traces {
		cause := tr.Cause
		if cause == "" {
			cause = "-"
		}
		var b strings.Builder
		fmt.Fprintf(&b, "%s  %-9s %-10s %s/%s  total=%s",
			tr.Time.Format("15:04:05.000"), tr.Verdict, cause, tr.Doc, tr.User, shortDuration(tr.Total))
		for _, st := range []struct {
			name string
			d    time.Duration
		}{
			{obs.StageShardLookup, tr.Lookup},
			{obs.StageFlightWait, tr.FlightWait},
			{obs.StageVerify, tr.Verify},
			{obs.StageBitFetch, tr.BitFetch},
			{obs.StageUniversal, tr.Universal},
			{obs.StagePersonal, tr.Personal},
			{obs.StageFullChain, tr.FullChain},
			{obs.StageRemoteRTT, tr.Remote},
		} {
			if st.d > 0 {
				fmt.Fprintf(&b, " %s=%s", st.name, shortDuration(st.d))
			}
		}
		if tr.Err != "" {
			fmt.Fprintf(&b, " err=%q", tr.Err)
		}
		if _, err := fmt.Fprintln(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// shortDuration rounds d for display: to 100µs from a millisecond up,
// to 1µs from a microsecond up.
func shortDuration(d time.Duration) time.Duration {
	switch {
	case d >= time.Millisecond:
		return d.Round(100 * time.Microsecond)
	case d >= time.Microsecond:
		return d.Round(time.Microsecond)
	}
	return d
}
