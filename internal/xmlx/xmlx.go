// Package xmlx is a hand-rolled event-based XML scanner.
//
// The UPnP unit of the paper switches its active parser from SSDP to "a
// XML parser to continue the parsing" when a description document arrives
// (§2.4, the SDP_C_PARSER_SWITCH event). xmlx is that parser: it walks a
// document and emits start-element, end-element and character-data events
// one at a time, exactly the event-based parsing style ([10] in the paper)
// INDISS is built on. A small tree builder on top serves callers that want
// the whole description at once.
//
// The scanner covers the XML subset UPnP device and service descriptions
// use: elements, attributes, character data, comments, processing
// instructions, CDATA and the five predefined entities plus numeric
// character references. DTDs are not supported.
package xmlx

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"unicode/utf8"
)

// Kind discriminates scanner events.
type Kind int

// Scanner event kinds.
const (
	// KindStart is a start tag; Name and Attrs are set. Self-closing
	// tags produce a KindStart immediately followed by a KindEnd.
	KindStart Kind = iota + 1
	// KindEnd is an end tag; Name is set.
	KindEnd
	// KindText is character data between tags, entity-decoded. Runs of
	// pure whitespace between elements are skipped.
	KindText
	// KindEOF marks the end of the document.
	KindEOF
)

// String names the kind for diagnostics.
func (k Kind) String() string {
	switch k {
	case KindStart:
		return "start"
	case KindEnd:
		return "end"
	case KindText:
		return "text"
	case KindEOF:
		return "eof"
	default:
		return "invalid"
	}
}

// Attr is one attribute of a start tag.
type Attr struct {
	Name  string
	Value string
}

// Token is one scanner event.
type Token struct {
	Kind  Kind
	Name  string // element name for start/end
	Text  string // character data for text tokens
	Attrs []Attr // attributes for start tokens
}

// Attr returns the named attribute value, or "".
func (t Token) Attr(name string) string {
	for _, a := range t.Attrs {
		if a.Name == name {
			return a.Value
		}
	}
	return ""
}

// ErrSyntax reports malformed XML.
var ErrSyntax = errors.New("xmlx: syntax error")

// Scanner walks an XML document, emitting one Token per Next call. The
// zero value is not usable; call NewScanner.
type Scanner struct {
	src     string
	pos     int
	stack   []string // open elements, for well-formedness checking
	pending []Token  // synthetic tokens (end half of self-closing tags)
	sawRoot bool     // a document element has been opened
	err     error
	done    bool
}

// NewScanner prepares a scanner over a document.
func NewScanner(src []byte) *Scanner {
	return &Scanner{src: string(src)}
}

// Depth returns how many elements are currently open.
func (s *Scanner) Depth() int { return len(s.stack) }

// Next returns the next token. After an error or EOF every subsequent call
// repeats the same result.
func (s *Scanner) Next() (Token, error) {
	if s.err != nil {
		return Token{}, s.err
	}
	if s.done {
		return Token{Kind: KindEOF}, nil
	}
	if len(s.pending) > 0 {
		tok := s.pending[0]
		s.pending = s.pending[1:]
		if tok.Kind == KindEnd && len(s.stack) > 0 && s.stack[len(s.stack)-1] == tok.Name {
			s.stack = s.stack[:len(s.stack)-1]
		}
		return tok, nil
	}
	for {
		tok, err := s.scan()
		if err != nil {
			s.err = err
			return Token{}, err
		}
		if tok.Kind == KindEOF {
			if len(s.stack) > 0 {
				s.err = fmt.Errorf("%w: unclosed element <%s>", ErrSyntax, s.stack[len(s.stack)-1])
				return Token{}, s.err
			}
			s.done = true
			return tok, nil
		}
		if tok.Kind == 0 {
			continue // skipped construct (comment, PI, declaration)
		}
		return tok, nil
	}
}

// scan produces the next raw token; Kind 0 means "skipped, call again".
func (s *Scanner) scan() (Token, error) {
	if s.pos >= len(s.src) {
		return Token{Kind: KindEOF}, nil
	}
	if s.src[s.pos] != '<' {
		return s.scanText()
	}
	switch {
	case strings.HasPrefix(s.src[s.pos:], "<!--"):
		return s.skipUntil("-->")
	case strings.HasPrefix(s.src[s.pos:], "<![CDATA["):
		return s.scanCDATA()
	case strings.HasPrefix(s.src[s.pos:], "<?"):
		return s.skipUntil("?>")
	case strings.HasPrefix(s.src[s.pos:], "<!"):
		return s.skipUntil(">")
	case strings.HasPrefix(s.src[s.pos:], "</"):
		return s.scanEndTag()
	default:
		return s.scanStartTag()
	}
}

func (s *Scanner) skipUntil(end string) (Token, error) {
	idx := strings.Index(s.src[s.pos:], end)
	if idx < 0 {
		return Token{}, fmt.Errorf("%w: unterminated %q construct", ErrSyntax, s.src[s.pos:min(s.pos+8, len(s.src))])
	}
	s.pos += idx + len(end)
	return Token{}, nil
}

func (s *Scanner) scanCDATA() (Token, error) {
	const cdataOpen, cdataClose = "<![CDATA[", "]]>"
	start := s.pos + len(cdataOpen)
	idx := strings.Index(s.src[start:], cdataClose)
	if idx < 0 {
		return Token{}, fmt.Errorf("%w: unterminated CDATA", ErrSyntax)
	}
	text := s.src[start : start+idx]
	s.pos = start + idx + len(cdataClose)
	if len(s.stack) == 0 {
		return Token{}, fmt.Errorf("%w: character data outside document element", ErrSyntax)
	}
	return Token{Kind: KindText, Text: text}, nil
}

func (s *Scanner) scanText() (Token, error) {
	end := strings.IndexByte(s.src[s.pos:], '<')
	var raw string
	if end < 0 {
		raw = s.src[s.pos:]
		s.pos = len(s.src)
	} else {
		raw = s.src[s.pos : s.pos+end]
		s.pos += end
	}
	if strings.TrimSpace(raw) == "" {
		return Token{}, nil // inter-element whitespace
	}
	if len(s.stack) == 0 {
		return Token{}, fmt.Errorf("%w: character data outside document element", ErrSyntax)
	}
	text, err := Unescape(raw)
	if err != nil {
		return Token{}, err
	}
	return Token{Kind: KindText, Text: text}, nil
}

func (s *Scanner) scanEndTag() (Token, error) {
	end := strings.IndexByte(s.src[s.pos:], '>')
	if end < 0 {
		return Token{}, fmt.Errorf("%w: unterminated end tag", ErrSyntax)
	}
	name := strings.TrimSpace(s.src[s.pos+2 : s.pos+end])
	s.pos += end + 1
	if !validName(name) {
		return Token{}, fmt.Errorf("%w: bad end tag name %q", ErrSyntax, name)
	}
	if len(s.stack) == 0 {
		return Token{}, fmt.Errorf("%w: unexpected </%s>", ErrSyntax, name)
	}
	top := s.stack[len(s.stack)-1]
	if top != name {
		return Token{}, fmt.Errorf("%w: </%s> closes <%s>", ErrSyntax, name, top)
	}
	s.stack = s.stack[:len(s.stack)-1]
	return Token{Kind: KindEnd, Name: name}, nil
}

func (s *Scanner) scanStartTag() (Token, error) {
	end := strings.IndexByte(s.src[s.pos:], '>')
	if end < 0 {
		return Token{}, fmt.Errorf("%w: unterminated start tag", ErrSyntax)
	}
	inner := s.src[s.pos+1 : s.pos+end]
	s.pos += end + 1

	selfClose := strings.HasSuffix(inner, "/")
	if selfClose {
		inner = inner[:len(inner)-1]
	}
	name, rest := splitName(inner)
	if !validName(name) {
		return Token{}, fmt.Errorf("%w: bad element name %q", ErrSyntax, name)
	}
	attrs, err := parseAttrs(rest)
	if err != nil {
		return Token{}, err
	}
	if len(s.stack) == 0 && s.sawRoot {
		return Token{}, fmt.Errorf("%w: second document element <%s>", ErrSyntax, name)
	}
	s.sawRoot = true
	tok := Token{Kind: KindStart, Name: name, Attrs: attrs}
	s.stack = append(s.stack, name)
	if selfClose {
		s.pending = append(s.pending, Token{Kind: KindEnd, Name: name})
	}
	return tok, nil
}

func splitName(s string) (name, rest string) {
	for i := 0; i < len(s); i++ {
		if s[i] == ' ' || s[i] == '\t' || s[i] == '\n' || s[i] == '\r' {
			return s[:i], s[i:]
		}
	}
	return s, ""
}

func parseAttrs(s string) ([]Attr, error) {
	var attrs []Attr
	i := 0
	for i < len(s) {
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) {
			break
		}
		eq := strings.IndexByte(s[i:], '=')
		if eq < 0 {
			return nil, fmt.Errorf("%w: attribute without value in %q", ErrSyntax, s)
		}
		name := strings.TrimSpace(s[i : i+eq])
		if !validName(name) {
			return nil, fmt.Errorf("%w: bad attribute name %q", ErrSyntax, name)
		}
		i += eq + 1
		for i < len(s) && isSpace(s[i]) {
			i++
		}
		if i >= len(s) || (s[i] != '"' && s[i] != '\'') {
			return nil, fmt.Errorf("%w: unquoted attribute value in %q", ErrSyntax, s)
		}
		quote := s[i]
		i++
		endQ := strings.IndexByte(s[i:], quote)
		if endQ < 0 {
			return nil, fmt.Errorf("%w: unterminated attribute value in %q", ErrSyntax, s)
		}
		value, err := Unescape(s[i : i+endQ])
		if err != nil {
			return nil, err
		}
		attrs = append(attrs, Attr{Name: name, Value: value})
		i += endQ + 1
	}
	return attrs, nil
}

func isSpace(c byte) bool {
	return c == ' ' || c == '\t' || c == '\n' || c == '\r'
}

func validName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case i > 0 && (r >= '0' && r <= '9' || r == '-' || r == '.'):
		case r >= utf8.RuneSelf:
		default:
			return false
		}
	}
	return true
}

// Unescape decodes the predefined entities and numeric character
// references in s.
func Unescape(s string) (string, error) {
	if !strings.Contains(s, "&") {
		return s, nil
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); {
		c := s[i]
		if c != '&' {
			b.WriteByte(c)
			i++
			continue
		}
		semi := strings.IndexByte(s[i:], ';')
		if semi < 0 {
			return "", fmt.Errorf("%w: unterminated entity", ErrSyntax)
		}
		entity := s[i+1 : i+semi]
		decoded, err := decodeEntity(entity)
		if err != nil {
			return "", err
		}
		b.WriteString(decoded)
		i += semi + 1
	}
	return b.String(), nil
}

func decodeEntity(entity string) (string, error) {
	switch entity {
	case "lt":
		return "<", nil
	case "gt":
		return ">", nil
	case "amp":
		return "&", nil
	case "quot":
		return `"`, nil
	case "apos":
		return "'", nil
	}
	if strings.HasPrefix(entity, "#") {
		digits := entity[1:]
		base := 10
		if strings.HasPrefix(digits, "x") || strings.HasPrefix(digits, "X") {
			digits, base = digits[1:], 16
		}
		n, err := strconv.ParseInt(digits, base, 32)
		if err != nil || n < 0 || !utf8.ValidRune(rune(n)) {
			return "", fmt.Errorf("%w: bad character reference &%s;", ErrSyntax, entity)
		}
		return string(rune(n)), nil
	}
	return "", fmt.Errorf("%w: unknown entity &%s;", ErrSyntax, entity)
}

// Escape encodes the five predefined entities in s for safe embedding in
// element content or attribute values. An invalid UTF-8 byte becomes
// U+FFFD. A string that needs none of this is returned as is.
func Escape(s string) string {
	if plainPrefix(s) == len(s) {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 16)
	escapeTo(&b, s)
	return b.String()
}

// escapeTo appends Escape(s) to b, writing each run that needs no
// escaping in one piece.
func escapeTo(b *strings.Builder, s string) {
	for {
		i := plainPrefix(s)
		b.WriteString(s[:i])
		if i == len(s) {
			return
		}
		if c := s[i]; c < utf8.RuneSelf {
			b.WriteString(entities[c])
		} else {
			b.WriteString("\uFFFD") // an invalid UTF-8 byte
		}
		s = s[i+1:]
	}
}

// entities maps each markup character to its predefined entity.
var entities = [...]string{'<': "&lt;", '>': "&gt;", '&': "&amp;", '"': "&quot;", '\'': "&apos;"}

// plainPrefix returns the length of the longest prefix of s that Escape
// leaves unchanged: no markup character and no invalid UTF-8.
func plainPrefix(s string) int {
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if int(c) < len(entities) && entities[c] != "" {
				return i
			}
			i++
			continue
		}
		r, n := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && n == 1 {
			return i
		}
		i += n
	}
	return len(s)
}
