package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
)

// hopNames are the hop ledger's metrics in path order; hopFields reads
// the matching self time, in ms, out of one traced call.
var hopNames = [...]string{"rpc.front_hop_us", "sdn.routing_us", "serve.queue_us", "serve.linger_us", "rpc.back_hop_us", "dalvik.exec_us"}

var hopFields = [len(hopNames)]func(*hopRec) float64{
	(*hopRec).frontHopMs,
	func(h *hopRec) float64 { return h.routing },
	func(h *hopRec) float64 { return h.queue },
	func(h *hopRec) float64 { return h.linger },
	func(h *hopRec) float64 { return h.network },
	func(h *hopRec) float64 { return h.exec },
}

// hopMedians is one traced window's hop ledger: the median over its
// calls of each hop's self time in µs, plus the share of calls whose
// front hop came out non-negative (the response's fields and the
// client's clock agree).
type hopMedians struct {
	us             [len(hopNames)]float64
	frontHopNonNeg float64
}

// frontHopMs is the root span's self time: what the client waited minus
// everything the front-end accounted for — device↔front-end codec and
// transport. Timings.BackendMs already holds queue + linger + network.
func (h *hopRec) frontHopMs() float64 {
	return h.lat - h.routing - h.backend - h.cloud
}

func medianHops(recs []hopRec) hopMedians {
	var m hopMedians
	col := make([]float64, 0, len(recs))
	for i, field := range hopFields {
		col = col[:0]
		for j := range recs {
			if recs[j].id != 0 { // failed calls carry no hop fields
				col = append(col, field(&recs[j]))
			}
		}
		sort.Float64s(col)
		m.us[i] = percentile(col, 0.5) * 1000
	}
	// col now holds the last hop's values; only its length is used.
	nonNeg := 0
	for j := range recs {
		if recs[j].id != 0 && recs[j].frontHopMs() >= 0 {
			nonNeg++
		}
	}
	if len(col) > 0 {
		m.frontHopNonNeg = float64(nonNeg) / float64(len(col))
	}
	return m
}

// hopLedger folds the traced windows' ledgers into values, one median
// over windows per hop, and returns the mean share of calls whose front
// hop was non-negative.
func hopLedger(wins []window, values map[string]float64) (frontHopNonNeg float64) {
	var nonNeg []float64
	cols := make([][]float64, len(hopNames))
	for _, win := range wins {
		if !win.traced {
			continue
		}
		nonNeg = append(nonNeg, win.hops.frontHopNonNeg)
		for i, us := range win.hops.us {
			cols[i] = append(cols[i], us)
		}
	}
	for i, name := range hopNames {
		values[name] = median(cols[i])
	}
	return mean(nonNeg)
}

// spanSample is how many calls per traced window are written out; the
// ledger's medians use every call.
const spanSample = 512

// span is one line of <workload>.spans.jsonl. Spans of one call share
// the request id; the root's parent is empty.
type span struct {
	Request uint64  `json:"request"`
	Window  int     `json:"window"`
	Name    string  `json:"name"`
	Parent  string  `json:"parent,omitempty"`
	StartUs float64 `json:"startUs"` // since window start
	EndUs   float64 `json:"endUs"`
	SelfUs  float64 `json:"selfUs"`
}

// spansOf lays one call's spans out. The product reports durations, not
// start times, so children are placed in path order inside the root with
// the two transport hops split evenly around what they enclose.
func spansOf(win int, h *hopRec) []span {
	start := float64(h.startNs) / 1000
	us := func(ms float64) float64 { return ms * 1000 }
	front := us(h.frontHopMs())
	root := span{Request: h.id, Window: win, Name: "rpc.offload", StartUs: start, EndUs: start + us(h.lat), SelfUs: front}
	out := []span{root}
	at := start + front/2
	child := func(name string, dur float64) {
		out = append(out, span{Request: h.id, Window: win, Name: name, Parent: root.Name, StartUs: at, EndUs: at + dur, SelfUs: dur})
		at += dur
	}
	child("sdn.routing", us(h.routing))
	child("serve.queue", us(h.queue))
	child("serve.linger", us(h.linger))
	// The back hop encloses the execution: its self time is the network
	// share, its span covers both.
	back := span{Request: h.id, Window: win, Name: "rpc.back_hop", Parent: root.Name,
		StartUs: at, EndUs: at + us(h.network) + us(h.exec), SelfUs: us(h.network)}
	out = append(out, back,
		span{Request: h.id, Window: win, Name: "dalvik.exec", Parent: back.Name,
			StartUs: at + us(h.network)/2, EndUs: at + us(h.network)/2 + us(h.exec), SelfUs: us(h.exec)})
	return out
}

// writeSpans writes the sampled spans kept in memory during the run.
func writeSpans(dir, workload string, sample [][]hopRec) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for win, recs := range sample {
		for i := range recs {
			if recs[i].id == 0 {
				continue
			}
			for _, sp := range spansOf(win, &recs[i]) {
				if err := enc.Encode(sp); err != nil {
					_ = f.Close()
					return "", fmt.Errorf("write %s: %w", path, err)
				}
			}
		}
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, f.Close()
}
