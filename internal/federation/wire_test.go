package federation

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
)

func TestHelloRoundTrip(t *testing.T) {
	in := Hello{Version: Version, GatewayID: "gw-a", ListenAddr: "10.0.1.9:7741",
		Peers: []PeerInfo{{ID: "gw-b", Addr: "10.0.2.9:7741"}}}
	frame := AppendHello(nil, in)
	ft, n, err := ParseFrameHeader(frame)
	if err != nil || ft != FrameHello || n != len(frame)-frameHeaderLen {
		t.Fatalf("header: %v %v %v", ft, n, err)
	}
	h, err := ParseHello(frame[frameHeaderLen:])
	if err != nil || !reflect.DeepEqual(h, in) {
		t.Fatalf("hello = %+v, %v", h, err)
	}
}

func TestAnnounceRoundTrip(t *testing.T) {
	in := Announce{
		OriginGW: "gw-c",
		Hops:     3,
		Origin:   "UPnP",
		Kind:     "clock",
		URL:      "soap://10.0.3.2:4004/control",
		Location: "http://10.0.3.2:4004/description.xml",
		TTL:      1_800_000,
		Attrs:    map[string]string{"friendlyName": "Clock", "usn": "uuid:x"},
	}
	frame := AppendAnnounce(nil, in)
	ft, n, err := ParseFrameHeader(frame)
	if err != nil || ft != FrameAnnounce {
		t.Fatalf("header: %v %v %v", ft, n, err)
	}
	out, err := ParseAnnounce(frame[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch:\n in %+v\nout %+v", in, out)
	}
}

func TestAnnounceEmptyAttrs(t *testing.T) {
	in := Announce{OriginGW: "g", Origin: "SLP", Kind: "k", URL: "u", TTL: 1}
	out, err := ParseAnnounce(AppendAnnounce(nil, in)[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if out.URL != "u" || len(out.Attrs) != 0 {
		t.Fatalf("out = %+v", out)
	}
}

func TestWithdrawRoundTrip(t *testing.T) {
	in := Withdraw{OriginGW: "gw-a", Hops: 1, Origin: "SLP", Kind: "printer", URL: "service:printer://x"}
	out, err := ParseWithdraw(AppendWithdraw(nil, in)[frameHeaderLen:])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", in, out)
	}
}

func TestReadFrameSequence(t *testing.T) {
	var stream []byte
	stream = AppendHello(stream, Hello{Version: Version, GatewayID: "a", ListenAddr: "10.0.1.9:7741"})
	stream = AppendAnnounce(stream, Announce{OriginGW: "a", Origin: "SLP", Kind: "k", URL: "u", TTL: 5})
	stream = AppendWithdraw(stream, Withdraw{OriginGW: "a", Origin: "SLP", Kind: "k", URL: "u"})

	r := bytes.NewReader(stream)
	var buf []byte
	want := []FrameType{FrameHello, FrameAnnounce, FrameWithdraw}
	for i, w := range want {
		ft, p, err := ReadFrame(r, buf)
		if err != nil || ft != w {
			t.Fatalf("frame %d: %v %v", i, ft, err)
		}
		buf = p
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	cases := [][]byte{
		nil,
		{0},
		{'X', 'F', 1, 0, 0, 0, 0},          // bad magic
		{'I', 'F', 99, 0, 0, 0, 0},         // unknown type
		{'I', 'F', 2, 0xFF, 0xFF, 0xFF, 0}, // oversize payload
	}
	for i, c := range cases {
		if _, _, err := ParseFrameHeader(c); !errors.Is(err, ErrWire) {
			t.Errorf("case %d accepted: %v", i, err)
		}
	}
	if _, err := ParseHello([]byte{1}); err == nil {
		t.Error("truncated hello accepted")
	}
	if _, err := ParseAnnounce([]byte{0, 0, 0}); err == nil {
		t.Error("truncated announce accepted")
	}
	if _, err := ParseWithdraw(nil); err == nil {
		t.Error("empty withdraw accepted")
	}
	// Announce without URL is semantically invalid.
	a := Announce{OriginGW: "g", Origin: "SLP", Kind: "k", URL: "u", TTL: 1}
	frame := AppendAnnounce(nil, a)
	payload := frame[frameHeaderLen:]
	if _, err := ParseAnnounce(append(payload, 0xFF)); err == nil {
		t.Error("trailing bytes accepted")
	}
}
