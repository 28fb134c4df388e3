package query

import (
	"strconv"
	"strings"
)

// Attr is an attribute value exposed by a machine: a string, a number, or a
// list of strings (for example the cms=sge,pbs,condor list of supported
// cluster-management systems).
type Attr struct {
	Str   string   `json:"str,omitempty"`
	Num   float64  `json:"num,omitempty"`
	IsNum bool     `json:"isNum,omitempty"`
	List  []string `json:"list,omitempty"`
}

// StrAttr builds a string attribute, promoting numeric strings so that both
// numeric and string comparisons work against them.
func StrAttr(s string) Attr {
	if f, ok := parseNum(s); ok {
		return Attr{Str: s, Num: f, IsNum: true}
	}
	if strings.Contains(s, ",") {
		parts := strings.Split(s, ",")
		list := make([]string, 0, len(parts))
		for _, p := range parts {
			if p = strings.TrimSpace(p); p != "" {
				list = append(list, p)
			}
		}
		return Attr{Str: s, List: list}
	}
	return Attr{Str: s}
}

// parseNum is strconv.ParseFloat for a value that may or may not be a
// number. Most values are words ("sun", "purdue"), and ParseFloat
// allocates an error for each; a word no number can start like is
// answered without calling it.
func parseNum(s string) (float64, bool) {
	if !mayBeNum(s) {
		return 0, false
	}
	f, err := strconv.ParseFloat(s, 64)
	return f, err == nil
}

// mayBeNum is false only for strings ParseFloat rejects. After an optional
// sign, every number ParseFloat accepts starts with a digit or a '.' (hex
// forms with "0x"), or is one of the words inf, infinity and nan in any
// case.
func mayBeNum(s string) bool {
	if s != "" && (s[0] == '+' || s[0] == '-') {
		s = s[1:]
	}
	if s == "" {
		return false
	}
	switch c := s[0]; {
	case '0' <= c && c <= '9', c == '.':
		return true
	case c == 'i', c == 'I', c == 'n', c == 'N':
		return strings.EqualFold(s, "inf") || strings.EqualFold(s, "infinity") || strings.EqualFold(s, "nan")
	}
	return false
}

// NumAttr builds a numeric attribute.
func NumAttr(f float64) Attr { return Attr{Num: f, IsNum: true, Str: FormatNum(f)} }

// ListAttr builds a list attribute.
func ListAttr(vals ...string) Attr {
	cp := make([]string, len(vals))
	copy(cp, vals)
	return Attr{List: cp, Str: strings.Join(cp, ",")}
}

// String renders the attribute as administrators would write it.
func (a Attr) String() string { return a.Str }

// Matches reports whether the attribute satisfies the condition. List
// attributes satisfy equality and membership conditions if any member does.
func (a Attr) Matches(c Condition) bool {
	switch c.Op {
	case OpAny:
		return true
	case OpEq:
		if len(a.List) > 0 && !c.IsNum {
			for _, m := range a.List {
				if m == c.Str {
					return true
				}
			}
			return false
		}
		if c.IsNum && a.IsNum {
			return a.Num == c.Num
		}
		return a.Str == c.Str
	case OpNe:
		cc := c
		cc.Op = OpEq
		return !a.Matches(cc)
	case OpGe:
		return a.IsNum && a.Num >= c.Num
	case OpLe:
		return a.IsNum && a.Num <= c.Num
	case OpGt:
		return a.IsNum && a.Num > c.Num
	case OpLt:
		return a.IsNum && a.Num < c.Num
	case OpRange:
		return a.IsNum && a.Num >= c.Lo && a.Num <= c.Hi
	case OpIn:
		for _, want := range c.Set {
			if len(a.List) > 0 {
				for _, m := range a.List {
					if m == want {
						return true
					}
				}
			} else if a.Str == want {
				return true
			}
		}
		return false
	}
	return false
}

// NumMatches reports NumAttr(f).Matches(c) without building the attribute:
// NumAttr formats f into a string, which the per-record matchers of a
// registry scan cannot afford once per record tested. Only a string
// comparison against a numeric attribute (string equality, membership)
// needs the formatted value, and that goes through a stack buffer.
func NumMatches(f float64, c Condition) bool {
	switch c.Op {
	case OpAny:
		return true
	case OpEq:
		if c.IsNum {
			return f == c.Num
		}
		return numIsStr(f, c.Str)
	case OpNe:
		c.Op = OpEq
		return !NumMatches(f, c)
	case OpGe:
		return f >= c.Num
	case OpLe:
		return f <= c.Num
	case OpGt:
		return f > c.Num
	case OpLt:
		return f < c.Num
	case OpRange:
		return f >= c.Lo && f <= c.Hi
	case OpIn:
		for _, want := range c.Set {
			if numIsStr(f, want) {
				return true
			}
		}
	}
	return false
}

// numIsStr reports FormatNum(f) == s without allocating.
func numIsStr(f float64, s string) bool {
	var buf [32]byte
	return string(appendNum(buf[:0], f)) == s
}

// AttrSet is a named collection of attributes, as held by a machine record.
type AttrSet map[string]Attr

// MatchRsrc reports whether the attribute set satisfies every rsrc condition
// of the query. A condition whose attribute is absent from the set fails,
// except the "don't care" wildcard, which always passes.
func (s AttrSet) MatchRsrc(q *Query) bool {
	for _, k := range q.ClassKeys(ClassRsrc) {
		cond := q.Fields[k.String()]
		if cond.Op == OpAny {
			continue
		}
		attr, ok := s[k.Name]
		if !ok {
			return false
		}
		if !attr.Matches(cond) {
			return false
		}
	}
	return true
}
