package xmlx

import (
	"strings"
	"testing"
	"testing/quick"
)

// escapeRuneByRune is the reference Escape: one rune at a time through
// WriteRune, so an invalid UTF-8 byte comes out as U+FFFD.
func escapeRuneByRune(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '<':
			b.WriteString("&lt;")
		case '>':
			b.WriteString("&gt;")
		case '&':
			b.WriteString("&amp;")
		case '"':
			b.WriteString("&quot;")
		case '\'':
			b.WriteString("&apos;")
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// checkEscape compares Escape and the marshal path's escapeTo with the
// reference on s.
func checkEscape(t *testing.T, s string) {
	t.Helper()
	want := escapeRuneByRune(s)
	if got := Escape(s); got != want {
		t.Fatalf("Escape(%q) = %q, want %q", s, got, want)
	}
	var b strings.Builder
	b.WriteString("x")
	escapeTo(&b, s)
	if got := b.String(); got != "x"+want {
		t.Fatalf("escapeTo(%q) wrote %q, want %q", s, got[1:], want)
	}
}

func FuzzEscapeMatchesRuneByRune(f *testing.F) {
	for _, s := range []string{
		"", "plain", `<a href="x">&'</a>`, "clock — ünïcode ✓",
		"\xff", "a\xffb", "\xe2\x82", "\xe2\x82<", "\xed\xa0\x80", "�", "<<>>&&",
	} {
		f.Add(s)
	}
	f.Fuzz(checkEscape)
}

func TestEscapeMatchesRuneByRune(t *testing.T) {
	f := func(s string, raw []byte) bool {
		checkEscape(t, s)
		checkEscape(t, string(raw)) // arbitrary bytes: invalid UTF-8 too
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestEscapeReturnsPlainStringAsIs(t *testing.T) {
	s := strings.Repeat("urn:schemas-upnp-org:device:clock:1 ✓", 4)
	if got := Escape(s); got != s {
		t.Fatalf("Escape changed a plain string: %q", got)
	}
	if n := testing.AllocsPerRun(100, func() { _ = Escape(s) }); n != 0 {
		t.Errorf("Escape of a plain string allocates %.0f times, want 0", n)
	}
}
