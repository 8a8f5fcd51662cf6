package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/url"
	"strings"

	"placeless/internal/cluster"
)

// ringView is the JSON shape of a cluster-mode plcached's /ring, and
// what ringCmd renders in either mode.
type ringView struct {
	Replicas int                `json:"replicas"`
	VNodes   int                `json:"vnodes"`
	Nodes    []cluster.NodeInfo `json:"nodes"`
	Doc      string             `json:"doc,omitempty"`
	User     string             `json:"user,omitempty"`
	Owners   []string           `json:"owners,omitempty"`
}

// ringCmd prints consistent-hash placement: per-node state, primary
// share and entry count, plus the owner set of an optional doc/user
// key. With -nodes it computes the placement offline for that member
// list (repeated addresses get the same #i-suffixed names plcached
// gives them); otherwise it fetches /ring from the cluster-mode
// plcached at httpAddr.
func ringCmd(httpAddr string, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("ring", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	nodes := fs.String("nodes", "", "comma-separated members: plan placement offline instead of asking -http")
	replicas := fs.Int("replicas", 2, "offline: owner-set size per key")
	vnodes := fs.Int("vnodes", cluster.DefaultVNodes, "offline: virtual nodes per member")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("ring: %w", err)
	}
	if fs.NArg() > 2 {
		return errors.New("ring: want at most <doc> [user]")
	}
	doc, user := fs.Arg(0), fs.Arg(1)

	var v ringView
	switch {
	case *nodes != "":
		v = planRing(strings.Split(*nodes, ","), *replicas, *vnodes, doc, user)
	case httpAddr != "":
		path := "/ring"
		if doc != "" {
			path += "?" + url.Values{"doc": {doc}, "user": {user}}.Encode()
		}
		body, err := httpGet(httpAddr, path)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("decode /ring: %w", err)
		}
	default:
		return errors.New("ring needs -http (a cluster-mode plcached) or -nodes (offline planning)")
	}
	renderRing(w, v)
	return nil
}

// planRing builds the ring plcached would build from members.
func planRing(members []string, replicas, vnodes int, doc, user string) ringView {
	r := cluster.NewRing(replicas, vnodes)
	seen := map[string]int{}
	for _, m := range members {
		m = strings.TrimSpace(m)
		if m == "" {
			continue
		}
		name := m
		if n := seen[m]; n > 0 {
			name = fmt.Sprintf("%s#%d", m, n)
		}
		seen[m]++
		r.Add(name)
	}
	shares := r.Shares()
	v := ringView{Replicas: r.Replicas(), VNodes: r.VNodes()}
	for _, n := range r.Nodes() {
		v.Nodes = append(v.Nodes, cluster.NodeInfo{Name: n, Share: shares[n]})
	}
	if doc != "" {
		v.Doc, v.User, v.Owners = doc, user, r.Owners(cluster.Key(doc, user))
	}
	return v
}

// renderRing prints a ring view; offline views have no state or
// entry columns.
func renderRing(w io.Writer, v ringView) {
	fmt.Fprintf(w, "ring: %d nodes, %d replicas, %d vnodes/node\n", len(v.Nodes), v.Replicas, v.VNodes)
	for _, n := range v.Nodes {
		if n.State == "" {
			fmt.Fprintf(w, "%-24s share %5.1f%%\n", n.Name, 100*n.Share)
		} else {
			fmt.Fprintf(w, "%-24s %-12s share %5.1f%%  entries %d\n", n.Name, n.State, 100*n.Share, n.Entries)
		}
	}
	if v.Doc != "" {
		fmt.Fprintf(w, "owners(%s, %s): %s\n", v.Doc, v.User, strings.Join(v.Owners, ", "))
	}
}
