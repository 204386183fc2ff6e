package mac

import (
	"slices"
	"testing"

	"charisma/internal/channel"
	"charisma/internal/phy"
	"charisma/internal/rng"
	"charisma/internal/sim"
	"charisma/internal/traffic"
)

// Populate rebuilds s through Reset over sources and links the caller
// made: station i carries srcs[i] (either source may be nil) and links[i].
// Every station is then materialized and re-bucketed, which leaves s as a
// cell whose stations were all built up front: an idle one armed at its
// next source event, an active one in its bucket.
func Populate(tb testing.TB, s *System, cfg Config, modem phy.PHY, stream *rng.Stream, srcs []Sources, links []*channel.Fading) {
	tb.Helper()
	err := s.Reset(cfg, modem, len(srcs), stream, &Population{
		FirstWake: slices.Repeat([]sim.Time{-1}, len(srcs)),
		Materialize: func(i int) (*traffic.VoiceSource, *traffic.DataSource, *channel.Fading) {
			return srcs[i].Voice, srcs[i].Data, links[i]
		},
	})
	if err != nil {
		tb.Fatal(err)
	}
	s.MaterializeAll()
	for _, st := range s.Stations {
		s.Reindex(st)
	}
}
