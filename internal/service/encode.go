package service

import (
	"errors"
	"math"
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"
)

// This file encodes served plans without reflection (DESIGN.md §10).
// Every appender writes exactly the bytes encoding/json writes for the
// same value — field order and omitempty per the struct tags, ES6 float
// formatting, HTML-safe string escaping — so the wire format is the
// struct tags' and nothing else. TestGoldenRoster and
// TestGoldenRebalanceRoster digest whole served bodies, and FuzzPlanJSON
// compares every appender against encoding/json byte for byte.
//
// Plan deliberately has no MarshalJSON method: BalanceResponse and
// RebalanceResponse embed Plan, and a promoted marshaler would make
// encoding/json drop their own fields.

// errNonFinite reports a NaN or ±Inf float in a plan. encoding/json has
// no encoding for them, so such a plan cannot be served.
var errNonFinite = errors.New("service: plan holds a non-finite float")

// maxPooledEncodeBuf bounds what a pooled encode buffer may retain: a
// buffer grown past it (a plan of roughly 16k parts) is dropped for the
// GC instead of pinning its memory in the pool, the rule the planner
// pools follow.
const maxPooledEncodeBuf = 1 << 20

var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// respondEncoded encodes a 200 body with enc into a pooled buffer and
// sends it as one Write with Content-Length set; a non-empty cacheState
// goes out as X-Lbserve-Cache. A plan with a non-finite float becomes
// the typed 500 internal error instead, before any byte is written; the
// return value reports whether the 200 went out.
func (s *Server) respondEncoded(w http.ResponseWriter, cacheState string, enc func([]byte) ([]byte, error)) bool {
	bp := encodeBufs.Get().(*[]byte)
	b, err := enc((*bp)[:0])
	if err != nil {
		s.reg.Counter(mInternalErrors).Inc()
		s.reject(w, http.StatusInternalServerError, "internal", "encode plan: "+err.Error())
	} else {
		s.reg.Counter(mOK).Inc()
		h := w.Header()
		h.Set("Content-Type", "application/json")
		if cacheState != "" {
			h.Set("X-Lbserve-Cache", cacheState)
		}
		h.Set("Content-Length", strconv.Itoa(len(b)))
		w.Write(b)
	}
	if cap(b) <= maxPooledEncodeBuf {
		*bp = b
		encodeBufs.Put(bp)
	}
	return err == nil
}

// respondPlan serves p as a BalanceResponse or RebalanceResponse body
// (the two encode identically).
func (s *Server) respondPlan(w http.ResponseWriter, p *Plan, cached, coalesced bool, cacheState string) bool {
	return s.respondEncoded(w, cacheState, func(b []byte) ([]byte, error) {
		return appendResponse(b, p, cached, coalesced)
	})
}

// finite reports whether every float of p is finite.
func (p *Plan) finite() bool {
	ok := isFinite(p.Total) && isFinite(p.Max) && isFinite(p.Ratio) && isFinite(p.Guarantee)
	for i := range p.Parts {
		ok = ok && isFinite(p.Parts[i].Weight)
	}
	if r := p.Rebalance; r != nil {
		ok = ok && isFinite(r.Band) && isFinite(r.DirtyWeightFrac)
	}
	return ok
}

func isFinite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// appendJSON appends the bytes json.Marshal(p) produces. It fails, with
// b unchanged, on a non-finite float.
func (p *Plan) appendJSON(b []byte) ([]byte, error) {
	if !p.finite() {
		return b, errNonFinite
	}
	b = append(b, '{')
	b = p.appendFields(b)
	return append(b, '}'), nil
}

// appendResponse appends the bytes json.NewEncoder(w).Encode writes for
// a BalanceResponse or RebalanceResponse embedding p, trailing newline
// included.
func appendResponse(b []byte, p *Plan, cached, coalesced bool) ([]byte, error) {
	if !p.finite() {
		return b, errNonFinite
	}
	b = append(b, '{')
	b = p.appendFields(b)
	b = append(b, `,"cached":`...)
	b = strconv.AppendBool(b, cached)
	if coalesced {
		b = append(b, `,"coalesced":true`...)
	}
	return append(b, "}\n"...), nil
}

// appendFields appends p's object members without the braces; p must
// be finite.
func (p *Plan) appendFields(b []byte) []byte {
	b = append(b, `"algorithm":`...)
	b = appendJSONString(b, p.Algorithm)
	b = append(b, `,"n":`...)
	b = strconv.AppendInt(b, int64(p.N), 10)
	b = append(b, `,"parts":`...)
	if p.Parts == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range p.Parts {
			if i > 0 {
				b = append(b, ',')
			}
			b = p.Parts[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"total":`...)
	b = appendJSONFloat(b, p.Total)
	b = append(b, `,"max":`...)
	b = appendJSONFloat(b, p.Max)
	b = append(b, `,"ratio":`...)
	b = appendJSONFloat(b, p.Ratio)
	if p.Guarantee != 0 {
		b = append(b, `,"guarantee":`...)
		b = appendJSONFloat(b, p.Guarantee)
	}
	b = append(b, `,"bisections":`...)
	b = strconv.AppendInt(b, int64(p.Bisections), 10)
	b = append(b, `,"max_depth":`...)
	b = strconv.AppendInt(b, int64(p.MaxDepth), 10)
	b = append(b, `,"signature":`...)
	b = appendJSONString(b, p.Signature)
	if p.Rebalance != nil {
		b = append(b, `,"rebalance":`...)
		b = p.Rebalance.appendJSON(b)
	}
	return b
}

func (pt *PartPlan) appendJSON(b []byte) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendUint(b, pt.ID, 10)
	b = append(b, `,"weight":`...)
	b = appendJSONFloat(b, pt.Weight)
	b = append(b, `,"procs":`...)
	b = strconv.AppendInt(b, int64(pt.Procs), 10)
	b = append(b, `,"depth":`...)
	b = strconv.AppendInt(b, int64(pt.Depth), 10)
	if pt.Group != 0 {
		b = append(b, `,"group":`...)
		b = strconv.AppendInt(b, int64(pt.Group), 10)
	}
	return append(b, '}')
}

func (r *RebalanceInfo) appendJSON(b []byte) []byte {
	b = append(b, `{"outcome":`...)
	b = appendJSONString(b, r.Outcome)
	b = append(b, `,"band":`...)
	b = appendJSONFloat(b, r.Band)
	b = append(b, `,"dirty":`...)
	b = strconv.AppendInt(b, int64(r.Dirty), 10)
	b = append(b, `,"dirty_weight_frac":`...)
	b = appendJSONFloat(b, r.DirtyWeightFrac)
	b = append(b, `,"splits":`...)
	b = strconv.AppendInt(b, int64(r.Splits), 10)
	b = append(b, `,"oversize":`...)
	b = strconv.AppendInt(b, int64(r.Oversize), 10)
	if len(r.GroupProcs) > 0 {
		b = append(b, `,"group_procs":[`...)
		for i, g := range r.GroupProcs {
			if i > 0 {
				b = append(b, ',')
			}
			b = strconv.AppendInt(b, int64(g), 10)
		}
		b = append(b, ']')
	}
	b = append(b, `,"prior_computed":`...)
	b = strconv.AppendBool(b, r.PriorComputed)
	return append(b, '}')
}

// appendJSON appends the bytes json.NewEncoder(w).Encode writes for r,
// trailing newline included. It fails, with b unchanged, when any plan
// holds a non-finite float.
func (r *BatchResponse) appendJSON(b []byte) ([]byte, error) {
	for i := range r.Items {
		if p := r.Items[i].Plan; p != nil && !p.finite() {
			return b, errNonFinite
		}
	}
	b = append(b, `{"items":`...)
	if r.Items == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Items {
			if i > 0 {
				b = append(b, ',')
			}
			b = r.Items[i].appendJSON(b)
		}
		b = append(b, ']')
	}
	b = append(b, `,"computed":`...)
	b = strconv.AppendInt(b, int64(r.Computed), 10)
	b = append(b, `,"cache_hits":`...)
	b = strconv.AppendInt(b, int64(r.CacheHits), 10)
	b = append(b, `,"deduped":`...)
	b = strconv.AppendInt(b, int64(r.Deduped), 10)
	return append(b, "}\n"...), nil
}

// appendJSON appends the item's JSON object. Every member is omitempty,
// so a comma precedes a member only when an earlier one was written.
func (it *BatchItem) appendJSON(b []byte) []byte {
	b = append(b, '{')
	open := len(b)
	comma := func(b []byte) []byte {
		if len(b) > open {
			b = append(b, ',')
		}
		return b
	}
	if it.Plan != nil {
		b = append(b, `"plan":{`...)
		b = it.Plan.appendFields(b)
		b = append(b, '}')
	}
	if it.Cached {
		b = append(comma(b), `"cached":true`...)
	}
	if it.Deduped {
		b = append(comma(b), `"deduped":true`...)
	}
	if e := it.Error; e != nil {
		b = append(comma(b), `"error":{"code":`...)
		b = appendJSONString(b, e.Code)
		b = append(b, `,"message":`...)
		b = appendJSONString(b, e.Message)
		b = append(b, '}')
	}
	return append(b, '}')
}

// appendJSONFloat formats a finite f as encoding/json does: the
// shortest representation, in exponent form below 1e-6 and from 1e21
// in magnitude, with the exponent unpadded ("1e-7", not "1e-07").
func appendJSONFloat(b []byte, f float64) []byte {
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		n := len(b)
		if n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s quoted and escaped as encoding/json does
// with HTML escaping on: '"' and '\\' backslash-escaped, the control
// bytes as \b \f \n \r \t or \u00XX, '<' '>' '&' as \u00XX, U+2028 and
// U+2029 as \u202X, and each invalid UTF-8 byte as \ufffd.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
