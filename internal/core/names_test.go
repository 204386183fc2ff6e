package core

import (
	"errors"
	"testing"
)

// protocolSpellings is every spelling the protocol-name table answers,
// with the canonical name it maps to, and spellings it refuses ("" as
// canon). Case and surrounding space are ignored; nothing else is.
var protocolSpellings = []struct {
	name, canon string
}{
	{"charisma", ProtoCharisma}, {"CHARISMA", ProtoCharisma}, {" Charisma\t", ProtoCharisma},
	{"rama", ProtoRAMA}, {"RAMA", ProtoRAMA}, {" rama ", ProtoRAMA},
	{"rmav", ProtoRMAV}, {"RMAV", ProtoRMAV}, {"\nRmav ", ProtoRMAV},
	{"drma", ProtoDRMA}, {"DRMA", ProtoDRMA},
	{"d-tdma/fr", ProtoDTDMAFR}, {"dtdma/fr", ProtoDTDMAFR}, {"d-tdma-fr", ProtoDTDMAFR}, {"D-TDMA/FR", ProtoDTDMAFR},
	{"d-tdma/vr", ProtoDTDMAVR}, {"dtdma/vr", ProtoDTDMAVR}, {"d-tdma-vr", ProtoDTDMAVR}, {" DTDMA/VR ", ProtoDTDMAVR},
	{"aloha", ""}, {"", ""}, {" ", ""}, {"d-tdma", ""}, {"dtdma-fr", ""}, {"d_tdma/fr", ""},
	{"dtdma", ""}, {"charisma2", ""}, {"char isma", ""}, {"chariſma", ""}, {"rmav\x00", ""},
}

// TestProtocolNameTable pins the one table of protocol spellings and every
// reader of it: CanonicalProtocol, KnownProtocol, NewProtocol (whose
// protocol carries the canonical name), AdaptivePHYFor, and
// Scenario.Validate's typed rejection.
func TestProtocolNameTable(t *testing.T) {
	adaptive := map[string]bool{ProtoCharisma: true, ProtoDTDMAVR: true}
	for _, c := range protocolSpellings {
		canon, ok := CanonicalProtocol(c.name)
		if canon != c.canon || ok != (c.canon != "") {
			t.Errorf("CanonicalProtocol(%q) = %q, %v, want %q", c.name, canon, ok, c.canon)
		}
		if KnownProtocol(c.name) != ok {
			t.Errorf("KnownProtocol(%q) = %v, want %v", c.name, !ok, ok)
		}
		if got := AdaptivePHYFor(c.name); got != adaptive[c.canon] {
			t.Errorf("AdaptivePHYFor(%q) = %v, want %v", c.name, got, adaptive[c.canon])
		}
		proto, err := NewProtocol(c.name)
		switch {
		case ok && (err != nil || proto.Name() != c.canon):
			t.Errorf("NewProtocol(%q): %v, %v; want a %s", c.name, proto, err, c.canon)
		case !ok && err == nil:
			t.Errorf("NewProtocol(%q) accepted", c.name)
		}
		sc := shortScenario(c.name, 5, 0)
		var ve *ValidationError
		switch err := sc.Validate(); {
		case ok && err != nil:
			t.Errorf("Validate with %q: %v", c.name, err)
		case !ok && (!errors.As(err, &ve) || ve.Field != "Protocol"):
			t.Errorf("Validate with %q: %v, want a *ValidationError for Protocol", c.name, err)
		}
	}
}

// TestCanonicalProtocolAllocFree: reading the table costs nothing for a
// lowercase name, so validation can run on every replication.
func TestCanonicalProtocolAllocFree(t *testing.T) {
	for _, name := range []string{ProtoCharisma, " d-tdma/vr ", "rmav", "aloha"} {
		if n := testing.AllocsPerRun(100, func() { CanonicalProtocol(name) }); n != 0 {
			t.Errorf("CanonicalProtocol(%q): %.0f allocs, want 0", name, n)
		}
	}
}
