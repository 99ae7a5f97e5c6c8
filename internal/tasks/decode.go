package tasks

import (
	"bytes"
	"strconv"
)

// This file is the fast path of unmarshalState: a single-pass decoder for
// the flat JSON objects the package's state types serialize to. It accepts
// a strict subset of what encoding/json accepts for the same target and
// decodes that subset to the same values; on anything else it declines
// with the target untouched and unmarshalState falls back to
// json.Unmarshal, so the accepted language and every error text stay
// encoding/json's. It declines on: an unknown, duplicate or
// differently-cased key, an escape or non-ASCII byte in a key or string,
// null, a nested value, a non-integer literal for an int, overflow, any
// grammar error, trailing bytes.

// maxFields is the widest state type (minimaxState).
const maxFields = 5

// field binds one JSON key to its destination and holds the decoded value
// until the whole object has parsed.
type field struct {
	key  string
	dst  any // *int, *bool, *string, *[]int or *[]float64
	seen bool
	n    int // *int, and *bool as 0/1
	s    string
	is   []int
	fs   []float64
}

type fieldSet struct {
	f [maxFields]field
	n int
}

func (fs *fieldSet) add(key string, dst any) {
	fs.f[fs.n] = field{key: key, dst: dst}
	fs.n++
}

// bind lists the keys of every state type in the package, once. A type
// missing here is decoded by encoding/json alone.
func (fs *fieldSet) bind(into any) {
	switch s := into.(type) {
	case *sortState:
		fs.add("values", &s.Values)
	case *minimaxState:
		fs.add("board", &s.Board)
		fs.add("m", &s.M)
		fs.add("k", &s.K)
		fs.add("turn", &s.Turn)
		fs.add("depth", &s.Depth)
	case *nqueensState:
		fs.add("n", &s.N)
	case *fibState:
		fs.add("n", &s.N)
	case *matmulState:
		fs.add("n", &s.N)
		fs.add("a", &s.A)
		fs.add("b", &s.B)
	case *knapsackState:
		fs.add("capacity", &s.Capacity)
		fs.add("weights", &s.Weights)
		fs.add("values", &s.Values)
	case *sieveState:
		fs.add("limit", &s.Limit)
	case *fftState:
		fs.add("re", &s.Re)
		fs.add("im", &s.Im)
	case *inferenceState:
		fs.add("model", &s.Model)
		fs.add("batch", &s.Batch)
		fs.add("in", &s.In)
		fs.add("load", &s.Load)
	}
}

// decodeState decodes data into the state type behind into, its arrays
// taken from a, and reports whether it did. On false, into has not been
// written.
func decodeState(a *arena, data []byte, into any) bool {
	var fs fieldSet
	fs.bind(into)
	if fs.n == 0 {
		return false
	}
	i := skipSpace(data, 0)
	if i == len(data) || data[i] != '{' {
		return false
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		i++
	} else {
		for {
			var f *field
			if f, i = fs.key(data, i); f == nil {
				return false
			}
			i = skipSpace(data, i)
			if i == len(data) || data[i] != ':' {
				return false
			}
			i = skipSpace(data, i+1)
			switch f.dst.(type) {
			case *int:
				f.n, i = scanInt(data, i)
			case *bool:
				f.n, i = scanBool(data, i)
			case *string:
				f.s, i = scanString(data, i)
			case *[]int:
				f.is, i = scanArray(data, i, scanInt, a.intSlice)
			case *[]float64:
				f.fs, i = scanArray(data, i, scanFloat, a.floatSlice)
			default:
				return false
			}
			if i < 0 {
				return false
			}
			f.seen = true
			i = skipSpace(data, i)
			if i == len(data) {
				return false
			}
			if data[i] == '}' {
				i++
				break
			}
			if data[i] != ',' {
				return false
			}
			i = skipSpace(data, i+1)
		}
	}
	if skipSpace(data, i) != len(data) {
		return false
	}
	for k := range fs.f[:fs.n] {
		f := &fs.f[k]
		if !f.seen {
			continue // encoding/json leaves a missing key's field alone
		}
		switch dst := f.dst.(type) {
		case *int:
			*dst = f.n
		case *bool:
			*dst = f.n != 0
		case *string:
			*dst = f.s
		case *[]int:
			*dst = f.is
		case *[]float64:
			*dst = f.fs
		}
	}
	return true
}

// key matches the quoted key at data[i:] byte-for-byte against the fields
// not seen yet and returns it with the index after the closing quote.
func (fs *fieldSet) key(data []byte, i int) (*field, int) {
	if i == len(data) || data[i] != '"' {
		return nil, -1
	}
	i++
	for k := range fs.f[:fs.n] {
		f := &fs.f[k]
		end := i + len(f.key)
		if !f.seen && end < len(data) && data[end] == '"' && string(data[i:end]) == f.key {
			return f, end + 1
		}
	}
	return nil, -1
}

var comma = []byte{','}

func skipSpace(data []byte, i int) int {
	for i < len(data) && (data[i] == ' ' || data[i] == '\n' || data[i] == '\t' || data[i] == '\r') {
		i++
	}
	return i
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// The scanners below take the index of a value's first byte and return the
// value with the index after its last, or a negative index to decline.

// scanDigits steps over the integer part of a JSON number: an optional
// minus, then 0 or a non-zero digit followed by digits.
func scanDigits(data []byte, i int) int {
	if i < len(data) && data[i] == '-' {
		i++
	}
	if i == len(data) || !isDigit(data[i]) {
		return -1
	}
	if data[i] == '0' {
		return i + 1
	}
	for i < len(data) && isDigit(data[i]) {
		i++
	}
	return i
}

func scanInt(data []byte, i int) (int, int) {
	end := scanDigits(data, i)
	if end < 0 || end < len(data) && (data[end] == '.' || data[end] == 'e' || data[end] == 'E') {
		return 0, -1
	}
	var v int64
	if end-i > 18 { // may not fit: 19 digits, or 18 and a sign
		var err error
		if v, err = strconv.ParseInt(string(data[i:end]), 10, 64); err != nil {
			return 0, -1
		}
	} else {
		neg := data[i] == '-'
		if neg {
			i++
		}
		for ; i < end; i++ {
			v = v*10 + int64(data[i]-'0')
		}
		if neg {
			v = -v
		}
	}
	if int64(int(v)) != v {
		return 0, -1
	}
	return int(v), end
}

func scanFloat(data []byte, i int) (float64, int) {
	end := scanDigits(data, i)
	if end < 0 {
		return 0, -1
	}
	if end < len(data) && data[end] == '.' {
		end++
		if end == len(data) || !isDigit(data[end]) {
			return 0, -1
		}
		for end < len(data) && isDigit(data[end]) {
			end++
		}
	}
	if end < len(data) && (data[end] == 'e' || data[end] == 'E') {
		end++
		if end < len(data) && (data[end] == '+' || data[end] == '-') {
			end++
		}
		if end == len(data) || !isDigit(data[end]) {
			return 0, -1
		}
		for end < len(data) && isDigit(data[end]) {
			end++
		}
	}
	// The function encoding/json calls on the same token, so the value is
	// bit-identical; it fails only out of range (1e999), a type error there.
	v, err := strconv.ParseFloat(string(data[i:end]), 64)
	if err != nil {
		return 0, -1
	}
	return v, end
}

func scanBool(data []byte, i int) (int, int) {
	rest := data[i:]
	if len(rest) >= 4 && string(rest[:4]) == "true" {
		return 1, i + 4
	}
	if len(rest) >= 5 && string(rest[:5]) == "false" {
		return 0, i + 5
	}
	return 0, -1
}

func scanString(data []byte, i int) (string, int) {
	if i == len(data) || data[i] != '"' {
		return "", -1
	}
	for end := i + 1; end < len(data); end++ {
		switch c := data[end]; {
		case c == '"':
			return string(data[i+1 : end]), end + 1
		case c == '\\' || c < ' ' || c >= 0x80:
			return "", -1
		}
	}
	return "", -1
}

// scanArray decodes a flat array of numbers. It counts the elements first
// and takes the slice from alloc once, sized from the bytes present; an
// empty array yields an empty non-nil slice, as encoding/json does.
func scanArray[T int | float64](data []byte, i int, elem func([]byte, int) (T, int), alloc func(int) []T) ([]T, int) {
	if i == len(data) || data[i] != '[' {
		return nil, -1
	}
	i = skipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return []T{}, i + 1
	}
	// Anything but numbers between here and the first ']' fails below.
	end := bytes.IndexByte(data[i:], ']')
	if end < 0 {
		return nil, -1
	}
	n := bytes.Count(data[i:i+end], comma) + 1
	out := alloc(n)
	for k := range out {
		if k > 0 {
			if i == len(data) || data[i] != ',' {
				return nil, -1
			}
			i = skipSpace(data, i+1)
		}
		if out[k], i = elem(data, i); i < 0 {
			return nil, -1
		}
		i = skipSpace(data, i)
	}
	if i == len(data) || data[i] != ']' {
		return nil, -1
	}
	return out, i + 1
}
