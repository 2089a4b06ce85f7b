package machine

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// Action identifies what a processor does during a traced interval.
type Action byte

const (
	// ActBisect is one bisection step (CostBisect units); sequential HF's
	// back-to-back bisections form one block.
	ActBisect Action = 'B'
	// ActSend is the transmission of a subproblem (CostSend units per
	// hop, attributed to the sender).
	ActSend Action = '>'
	// ActRecv marks the arrival of a subproblem at a processor.
	ActRecv Action = 'v'
	// ActCollective marks participation in a global operation.
	ActCollective Action = 'G'
)

// TraceEvent is one scheduled interval on one processor.
type TraceEvent struct {
	Proc     int
	Start    int64
	Duration int64
	Action   Action
	// Weight is the subproblem weight involved (0 for collectives).
	Weight float64
}

// Trace is the full schedule of a simulated run: a Run function given a
// non-nil *Trace resets it and records every step into it. A subproblem
// is attributed to the processor that holds it: under BA the first
// processor of its range, under PHF the processor acquired for it.
type Trace struct {
	N        int
	Makespan int64
	Events   []TraceEvent
}

// BusyTime returns the total busy units of each processor.
func (t *Trace) BusyTime() []int64 {
	busy := make([]int64, t.N)
	for _, e := range t.Events {
		if e.Proc >= 0 && e.Proc < t.N {
			busy[e.Proc] += e.Duration
		}
	}
	return busy
}

// Utilization returns aggregate busy time over N×makespan.
func (t *Trace) Utilization() float64 {
	if t.Makespan == 0 || t.N == 0 {
		return 0
	}
	var sum int64
	for _, b := range t.BusyTime() {
		sum += b
	}
	return float64(sum) / float64(t.N) / float64(t.Makespan)
}

// RenderGantt draws the trace as a per-processor timeline: B = bisecting,
// > = sending, v = receiving, G = global operation, · = idle. At most
// maxProcs rows are shown (the busiest first if truncated).
func RenderGantt(w io.Writer, tr *Trace, maxProcs int) error {
	if tr == nil || tr.N == 0 {
		return fmt.Errorf("machine: empty trace")
	}
	if maxProcs < 1 {
		maxProcs = 16
	}
	span := tr.Makespan
	if span == 0 {
		span = 1
	}
	// Unit resolution: one column per time unit (plus one so zero-width
	// arrival markers at the makespan stay visible), capped at 120 columns.
	cols := int(span) + 1
	scale := int64(1)
	for cols > 120 {
		scale *= 2
		cols = int((span + scale - 1) / scale)
	}
	procs := tr.N
	truncated := false
	order := make([]int, tr.N)
	for i := range order {
		order[i] = i
	}
	if procs > maxProcs {
		busy := tr.BusyTime()
		sort.Slice(order, func(a, b int) bool {
			if busy[order[a]] != busy[order[b]] {
				return busy[order[a]] > busy[order[b]]
			}
			return order[a] < order[b]
		})
		order = order[:maxProcs]
		sort.Ints(order)
		procs = maxProcs
		truncated = true
	}
	rows := make(map[int][]byte, procs)
	for _, p := range order {
		rows[p] = []byte(strings.Repeat(".", cols))
	}
	// Work first, then the zero-width receive markers on top, so an
	// arrival at the instant work starts on that processor stays visible.
	for _, recv := range []bool{false, true} {
		for _, e := range tr.Events {
			row, ok := rows[e.Proc]
			if !ok || (e.Action == ActRecv) != recv {
				continue
			}
			from := int(e.Start / scale)
			to := int((e.Start + e.Duration + scale - 1) / scale)
			if to <= from {
				to = from + 1
			}
			for c := from; c < to && c < cols; c++ {
				row[c] = byte(e.Action)
			}
		}
	}
	fmt.Fprintf(w, "Gantt: %d processors, makespan %d units (1 column = %d unit(s))\n",
		tr.N, tr.Makespan, scale)
	fmt.Fprintf(w, "B=bisect  >=send  v=recv  G=global op  .=idle\n\n")
	for _, p := range order {
		fmt.Fprintf(w, "P%-5d |%s\n", p+1, string(rows[p]))
	}
	if truncated {
		fmt.Fprintf(w, "… (%d further processors not shown)\n", tr.N-procs)
	}
	fmt.Fprintf(w, "\nutilization: %.1f%%\n", 100*tr.Utilization())
	return nil
}
