package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"time"

	"mtmlf/internal/catalog"
	"mtmlf/internal/corpus"
	"mtmlf/internal/datagen"
	"mtmlf/internal/mtmlf"
	"mtmlf/internal/workload"
)

// fixture is the per-seed input of every workload: one labeled
// synthetic-IMDB corpus and the checkpoint trained on its training
// split. Building it is not timed. It is cached under the build
// directory, keyed by everything it is made from, so runs that share
// a seed build it once.
type fixture struct {
	corpus, ckpt string
}

func fixtureFor(buildDir string, seed int64, st settings) fixture {
	dir := filepath.Join(buildDir, "fixtures",
		fmt.Sprintf("seed%d-scale%g-train%d-pool%d-batch%d-epochs%d", seed, st.Scale, st.TrainQueries, st.PoolSize, st.Batch, st.FixtureEpochs))
	return fixture{corpus: filepath.Join(dir, "corpus.mtc"), ckpt: filepath.Join(dir, "model.ckpt")}
}

// ensureFixture builds the fixture unless it is already cached. It
// builds in a child process, so that fixture work never shows in this
// process's peak_rss_mb. The child builds the default settings'
// fixture; callers with other settings (the self-tests) build theirs
// in process first, so that it is found cached here.
func ensureFixture(buildDir string, seed int64, st settings) (fixture, error) {
	fx := fixtureFor(buildDir, seed, st)
	if exists(fx.corpus) && exists(fx.ckpt) {
		return fx, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return fx, err
	}
	cmd := exec.Command(exe, "fixture", "-seed", fmt.Sprint(seed), "-dir", buildDir)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return fx, fmt.Errorf("build fixture for seed %d: %w", seed, err)
	}
	if !exists(fx.corpus) || !exists(fx.ckpt) {
		return fx, fmt.Errorf("fixture for seed %d: %s not built (the child builds only the default settings' fixture)", seed, filepath.Dir(fx.corpus))
	}
	return fx, nil
}

func exists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// fixtureMain is the "fixture" subcommand: the child process that
// ensureFixture starts.
func fixtureMain(args []string) error {
	fs := flag.NewFlagSet("fixture", flag.ContinueOnError)
	seed := fs.Int64("seed", 1, "fixture seed")
	dir := fs.String("dir", ".bench_build", "build directory")
	if err := fs.Parse(args); err != nil {
		return err
	}
	st := defaultSettings(0)
	return buildFixture(fixtureFor(*dir, *seed, st), *seed, st)
}

// buildFixture generates the corpus and trains the checkpoint. The
// pool is written first, so loadgen.CorpusPool(path, "", PoolSize)
// reads exactly the held-out queries; the training split follows.
// The checkpoint is what mtmlf-train -save would write for this
// database: featurizer pre-training, then FixtureEpochs joint epochs
// over the training split at the benchmark's batch size.
func buildFixture(fx fixture, seed int64, st settings) error {
	if err := os.MkdirAll(filepath.Dir(fx.corpus), 0o755); err != nil {
		return err
	}
	t0 := time.Now()
	db := datagen.SyntheticIMDB(seed, st.Scale)
	cat := catalog.NewMemory(db)
	gen := workload.NewGeneratorFrom(cat, seed+1)
	wcfg := workload.DefaultConfig()
	all := gen.Generate(st.PoolSize+st.TrainQueries, wcfg)
	meta := corpus.Meta{Seed: seed, Note: fmt.Sprintf("benchmark fixture: pool %d then train %d, scale %g", st.PoolSize, st.TrainQueries, st.Scale)}
	if err := corpus.WriteFile(fx.corpus, meta, []*corpus.Database{{DB: db, Examples: all}}); err != nil {
		return err
	}
	t1 := time.Now()
	model := mtmlf.NewModelCat(mtmlf.DefaultConfig(), cat, seed)
	model.Feat.PretrainAll(gen, 40, 2, wcfg)
	if _, err := model.TrainJointStream(workload.SliceSource(all[st.PoolSize:]), mtmlf.TrainOptions{
		Epochs: st.FixtureEpochs, Seed: seed + 2, BatchSize: st.Batch,
	}); err != nil {
		return err
	}
	if err := mtmlf.SaveFile(fx.ckpt, model); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "fixture seed %d: corpus %v, checkpoint %v\n", seed,
		t1.Sub(t0).Round(time.Millisecond), time.Since(t1).Round(time.Millisecond))
	return nil
}
