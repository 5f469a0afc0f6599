// Determinism regression: the synthesis flow must be reproducible
// byte-for-byte. Every stochastic stage takes an explicit seed, so the
// complete solution — placement rectangles, routed paths, makespan and
// derived metrics — is a pure function of (assay, allocation, options).
// These tests pin SHA-256 fingerprints of the full solution for all seven
// Table I benchmarks, captured from the original (pre-incremental) code:
// the incremental-energy placer, the allocation-free router and the
// parallel pipeline must all reproduce them exactly.
package repro_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"repro/internal/benchdata"
	"repro/internal/core"
)

// fingerprintOpts are the fixed options the golden hashes were captured
// with (benchOpts: the paper's parameters at Imax=60, seed 1).
func fingerprintOpts() core.Options {
	o := core.DefaultOptions()
	o.Place.Imax = 60
	return o
}

// writeSolution streams every deterministic field of a solution into h in
// a canonical order. CPU time is excluded: it is the only field that
// legitimately varies between runs.
func writeSolution(h hash.Hash, sol *core.Solution) {
	fmt.Fprintf(h, "makespan=%d util=%.12f\n", sol.Schedule.Makespan, sol.Schedule.Utilization())
	fmt.Fprintf(h, "transports=%d\n", len(sol.Schedule.Transports))
	fmt.Fprintf(h, "plane=%dx%d\n", sol.Placement.W, sol.Placement.H)
	for i, r := range sol.Placement.Rects {
		fmt.Fprintf(h, "rect %d: %d %d %d %d\n", i, r.X, r.Y, r.W, r.H)
	}
	for _, rt := range sol.Routing.Routes {
		fmt.Fprintf(h, "task %d:", rt.Task.ID)
		for _, c := range rt.Path {
			fmt.Fprintf(h, " %d,%d", c.X, c.Y)
		}
		fmt.Fprintln(h)
	}
	fmt.Fprintf(h, "wash=%d union=%d cache=%d\n",
		sol.Routing.ChannelWash, sol.Routing.UnionCells, sol.Schedule.TotalChannelCacheTime())
}

// solutionFingerprint returns the canonical SHA-256 of a solution.
func solutionFingerprint(sol *core.Solution) string {
	h := sha256.New()
	writeSolution(h, sol)
	return hex.EncodeToString(h.Sum(nil))
}

// goldenFingerprints were captured from the seed implementation (full
// Energy recomputation, map-based A*) at fingerprintOpts. Keyed by
// benchmark name and algorithm ("ours" / "BA").
var goldenFingerprints = map[string]string{
	"PCR/ours":        "8711769dfed9fb9b0bbb7cd3770159c54837e25f9fee282bca340c5a95b2e9a7",
	"PCR/BA":          "94372516b523f11636e53d38488b83370daa9cafeb14810218ca8dd092250499",
	"IVD/ours":        "8aaba2458ab23ebe867c5efcac8ee6dfb66dbf63b0448d56abf6bdec28c26c08",
	"IVD/BA":          "151e31334f6910791f49320909146369373fc57d282682fe6013a1c861c6b6ce",
	"CPA/ours":        "2ed08bc10278a7f041d3e12231db9b917f3cea55cdc33a89213ec0521ada49e8",
	"CPA/BA":          "826467982cee5bcc7861f43bd516767d15ccf2477e15f090e1439854e67d9a8a",
	"Synthetic1/ours": "6926ba0ddd00ae50436f81722c456251b1c11f7603f6dcab4a1ac3a61af1fa7b",
	"Synthetic1/BA":   "662dceaf58ceaf6e38f6a7d17d96fe755bc056d2810e100afae731849fc3ce4a",
	"Synthetic2/ours": "04a54a7de8fb825abe6d1292afa7668e03543203e891741ac9a89c0f79d65798",
	"Synthetic2/BA":   "19eae3acfb5660b3b8e1146b66b42f9b0af5ca4a49d28bdc4c02c2050931369e",
	"Synthetic3/ours": "b2ac8189affb9c1e8f9279c34d6b36baaffb7de842b3642544ec19115eef9c87",
	"Synthetic3/BA":   "20813eacbda2b3c2cb52e14fe18f2056156d7316ff0575d365077afce9c011f5",
	"Synthetic4/ours": "44b383124f52fd2ad8e072a42b14ffa038b9586efa437c19860acb9e45fa6815",
	"Synthetic4/BA":   "0bb9c58a8d8dc6257207d39aa9319e9f76512b5cd669ee61143b00e8d0f7bfa7",
}

func TestSolutionFingerprints(t *testing.T) {
	for _, bm := range benchdata.All() {
		for _, algo := range []string{"ours", "BA"} {
			key := bm.Name + "/" + algo
			t.Run(key, func(t *testing.T) {
				var sol *core.Solution
				var err error
				if algo == "ours" {
					sol, err = core.Synthesize(bm.Graph, bm.Alloc, fingerprintOpts())
				} else {
					sol, err = core.SynthesizeBaseline(bm.Graph, bm.Alloc, fingerprintOpts())
				}
				if err != nil {
					t.Fatal(err)
				}
				got := solutionFingerprint(sol)
				want, ok := goldenFingerprints[key]
				if !ok || want == "" {
					t.Logf("CAPTURE %q: %q,", key, got)
					t.Skip("no golden fingerprint recorded for", key)
				}
				if got != want {
					t.Errorf("solution fingerprint diverged from seed:\n got %s\nwant %s", got, want)
				}
			})
		}
	}
}

// goldenTemperedFingerprints pin the parallel-tempering path, which
// TestTemperedDeterminismAcrossWorkers only checks for self-agreement:
// fingerprintOpts with Tempering = R and Place.Seed = s, keyed
// "<benchmark>/R<R>/s<s>". Captured from the full-recompute annealer
// (every accepted move rescored with Energy), before the cached-term fold
// replaced it.
var goldenTemperedFingerprints = map[string]string{
	"PCR/R2/s1":        "a0118b04d801befa39f78f5a94632c0cea01a0692cbbcad336994d68e66c306d",
	"PCR/R2/s2":        "a38c852a293f0c975e84e5e200224fecdb1e59acccf838a863a1514f7041703e",
	"PCR/R2/s3":        "5abadcc1df425fa3102433b22134b06c392c2ba916b11387c0b842917f1e7a1d",
	"PCR/R4/s1":        "5b44e2e0c9337fa729b01b4a9fc5f967a786c18f33e512da2306e2a5b67327c6",
	"PCR/R4/s2":        "f9c0eeee72c26219730721232eae48c65290778d65f868c99f6d6186c2443274",
	"PCR/R4/s3":        "aba01e21af56cb22da5873b39e3ed832ab2666d0c0831e2ceed3a2481485c6a5",
	"IVD/R2/s1":        "ebc554364b81a85716a58d42d38ff3a00f7367e93d89cae9ed88a40f7a227e16",
	"IVD/R2/s2":        "da763070524aff795cb7328b118398bf3bb7e8595d259e7d389426548a2528ba",
	"IVD/R2/s3":        "ed459b1a9157877ef3c5530d62fc54b122c716a4544bf8e767b4ecb6dbb822d2",
	"IVD/R4/s1":        "ed459b1a9157877ef3c5530d62fc54b122c716a4544bf8e767b4ecb6dbb822d2",
	"IVD/R4/s2":        "a245b4661eac56347c87b18cdbdd71512836ba423402da04e782cab718ce40b0",
	"IVD/R4/s3":        "89d28fc913cced88315ac166ae51f7b5dd9c1f25bfb1f9c805b67f4cce60c619",
	"CPA/R2/s1":        "db75f77647ca21937fdb9cdce5e583d605fc9cb4b95ba1d2e00750a45b689cdc",
	"CPA/R2/s2":        "38df58fe429debc2a4b9c0a86905f8f435552458e8fbb8c4e2a33e6cae8ba992",
	"CPA/R2/s3":        "81de8e3da1cface5baf0d1f7e15d65da04edb83e979604db20734433ca94a6be",
	"CPA/R4/s1":        "81de8e3da1cface5baf0d1f7e15d65da04edb83e979604db20734433ca94a6be",
	"CPA/R4/s2":        "fea3cd614c243be3be49393d7d0dfdfb9fa77c088e7dd77d172c8a4710754fba",
	"CPA/R4/s3":        "e47dcebf60969b776f43d6e5293f9afc3a8683ebee7fb8bb40446bcd9e870774",
	"Synthetic1/R2/s1": "f669771193036b948982f67cab813a3ebc10c0a527e744047c948f2d09f0e7e5",
	"Synthetic1/R2/s2": "93cae1656d9ad1db99fd2c1656d4bbf72a56aff16db7648977b3761ff12ead72",
	"Synthetic1/R2/s3": "9d8c4397678db67123b3055db471871e507d6aaa4035171c22586f0fd414a219",
	"Synthetic1/R4/s1": "9d8c4397678db67123b3055db471871e507d6aaa4035171c22586f0fd414a219",
	"Synthetic1/R4/s2": "2a67c243579968e7b833bee567c27b45aca042b84144862302876dcb17c4fbbc",
	"Synthetic1/R4/s3": "41c8ae62f6439246088eb29b5de017d49724b65bba81919625863a1ca72f747c",
	"Synthetic2/R2/s1": "5c9ab69f1955b033b7b9c5c2a87c633182dc4af1d0de1f925c37a6328c171754",
	"Synthetic2/R2/s2": "9913f178f52bad78790108f51c4840f1b20da2bc2f0ac353f5f771dc19faffed",
	"Synthetic2/R2/s3": "e198f25fedf10ae5f41cd01b583bc11edc599da4dcdcbec2fe060d8e28a8dbd1",
	"Synthetic2/R4/s1": "51735974bacbef5a7317bd48d679fc15f5abaca4953444b324eb54637cd2e60d",
	"Synthetic2/R4/s2": "bae1c46374289cefe217fd65e34f29e71116f7cb2d60f3bef5e45ac933c8a2b8",
	"Synthetic2/R4/s3": "1dfccdfbd1d3d00a82f78ad4c6bcf9307e1f015c9e6607758bade250f71776f4",
	"Synthetic3/R2/s1": "94a05e2515cdf9b5e3d9bc9e38205f91dcf8b2fa7497f59bc610c1b427e6a5d8",
	"Synthetic3/R2/s2": "0fbe25db0a91cde06417c9940bc9e2e27cf4c429e251ee9fef9ef754b341d90f",
	"Synthetic3/R2/s3": "cea26e3cd0084c3cd5cc21bb6eb613750d1ad447c2533a5a78b67326f0180800",
	"Synthetic3/R4/s1": "c5bfdc0caa97c8c8ef3093a8d37d4f8b780c5f568a02a928753d67f0919f5032",
	"Synthetic3/R4/s2": "09fa9ea66023c473f67fc739ea04b5454b30974a9dc1552838c158afa3b9d457",
	"Synthetic3/R4/s3": "07ed677d1ddaf4b0958004fcd73cb939dbfd56c1637d8c6663beb1c0ca1ebd42",
	"Synthetic4/R2/s1": "a10db311b982a046333bb4eaf7badbbc4e727fa2ac0bbe37fdf76b45a3dbad8a",
	"Synthetic4/R2/s2": "c78692048a620e61eaa6ba9c0a2ba068488c633f8830d5951167b9d83ed4c7c7",
	"Synthetic4/R2/s3": "a242e5990e96906aaeec02e715bc127c37c307056a4a6daecc2da27ceeb1e203",
	"Synthetic4/R4/s1": "eda0c90616d48b991775cb73eff958c931ab8705609b7bd479e84467499f8d90",
	"Synthetic4/R4/s2": "b474ce531d7470996fb35d155f875a0741554e9c2fa8098c8c9ab69eb9ad2b28",
	"Synthetic4/R4/s3": "a2fe3a97e5ea3f883aef7570d1500c4efdab198325703081509a3ff5fcb80151",
}

func TestTemperedFingerprints(t *testing.T) {
	for _, bm := range benchdata.All() {
		for _, replicas := range []int{2, 4} {
			for seed := uint64(1); seed <= 3; seed++ {
				key := fmt.Sprintf("%s/R%d/s%d", bm.Name, replicas, seed)
				t.Run(key, func(t *testing.T) {
					opts := fingerprintOpts()
					opts.Tempering = replicas
					opts.Place.Seed = seed
					sol, err := core.Synthesize(bm.Graph, bm.Alloc, opts)
					if err != nil {
						t.Fatal(err)
					}
					got := solutionFingerprint(sol)
					want, ok := goldenTemperedFingerprints[key]
					if !ok {
						t.Logf("CAPTURE %q: %q,", key, got)
						t.Skip("no golden fingerprint recorded for", key)
					}
					if got != want {
						t.Errorf("tempered fingerprint diverged:\n got %s\nwant %s", got, want)
					}
				})
			}
		}
	}
}
