# CSTF reproduction — developer entry points

PYTHON ?= python
export PYTHONPATH := src

.PHONY: install test lint loc loc-check bench perfbench perfbench-quick figures examples clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# style lint (ruff, skipped with a notice when not installed) plus the
# project's own dataflow linter over the library, examples and fixtures
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests examples benchmarks; \
	else \
		echo "ruff not installed (pip install ruff); skipping style pass"; \
	fi
	$(PYTHON) -m repro lint --strict src examples
	$(PYTHON) -m repro lint --run examples/engine_tour.py
	$(PYTHON) -m repro lint --run tests/lint/fixtures/clean_program.py

# the tracked size figure (ROADMAP): Python lines under src/repro
loc:
	@find src/repro -name '*.py' | xargs cat | wc -l

# the figure should go down: a PR that lowers it lowers LOC_CEILING to
# its result in the same commit; one that raises it has to say why here
#
# PR 23 raised it 19,151 -> 19,578 (+427; the issue budgeted +100 on a
# prototype that covered the vectorized kernel alone).  What was added
# is the second half of two pairs the contract needs whole: the record
# oracle's factor-side steps (kernels/record.py +56, the Kernel
# contract in base.py +65, their vectorized twins +44), the join RDD
# the fit needs to stay narrow in spark mode and shuffled in hadoop
# mode (rdd.py +58), a shuffle that keeps records' arrival order and
# (map, reduce) fault/CRC sites beside the run layout (shuffle.py +78),
# the block helpers that replaced split_by_partition (blocks.py +53),
# hadoop-mode re-cutting of keyed rows so no modelled BIGtensor second
# moves (context.py, partitioner.py, bigtensor.py, cstf_dimtree.py
# +40) and the lint typing (+13).  Deleted in the same commit:
# split_by_partition, the per-bucket block lists, the block join's
# from_records + sort, the vectorized Gram's sorted + np.stack, the
# driver's five per-row closures.
#
# PR 24 raised it 19,578 -> 19,701 (+123; the issue budgeted +60).
# procpool.py itself shrank (593 -> 585: one generic OffloadClient.run
# replaced contrib, _run_request, _release_outs and _op_contrib).  What
# was added is the second call site the generic op exists for and the
# contract around it: the fused sampled task body, its node and the
# shared _run fallback in kernels/vectorized.py (+57), the two-node
# oracle form of the same step on the Kernel base class (base.py +21),
# draw_block, the one draw both forms call (sampled.py +18),
# RDD.offloads + the stage rule that reads it (rdd.py +4 net of the
# narrow-chain walker moved out of scheduler.py, taskscheduler.py +12,
# backends.py +8) and the lint typing of three op kinds (plan.py +7).
# About half of it is docstrings that carry a reason (why a stage gets
# no threads, what a site is, where counters must be bumped).
#
# PR 32 raised it 17,311 -> 17,340 (+29; the issue allowed +30).  The
# sampled draw no longer calls Generator.choice, whose search over
# unsorted uniforms was most of a lev3-pool task: draw_rows replays
# choice's inverse CDF with every check it makes of p (pinned index
# for index in tests/core/test_grouping.py), and pool_rows reads the
# uniform pool by index, so draw_block builds no pooled block; the
# kept uniform_pool and sample_block are compositions of the two
# (sampled.py +23).  Non-finite leverage weights raise instead of
# drawing uniformly, block_contribution picks bincount or planes by
# PLANE_BYTES (vectorized.py +4) and the fold's docstring gives the
# crossover (segsum.py +2).
#
# The one-store shuffle raised it 15,755 -> 15,795 (+40).  A shuffle's
# keyed rows are placed in reduce order once, at its first read, and
# each reduce task reads a slice: the store, its build (one argsort,
# a scatter column by column through a one-item-per-row view, each map
# array dropped once placed) and the cut that rebuilds it from the rows
# of outputs surviving a loss or a rewrite (shuffle.py +28), and the
# row-array view of both block types that the scatter and concat_ranges
# share (blocks.py +12).  Deleted in the same change: the per-map
# gather in write, the per-bucket range walk, _Range and _assemble.
#
# The lazy package raised it 15,795 -> 15,811 (+16).  repro/__init__
# resolves its exports and subpackages on first use (PEP 562), so a
# pool worker imports the engine and the kernels, not scipy, and starts
# in about half the time: the name -> subpackage table, __getattr__ and
# __dir__ in place of the five eager imports (+9), the tensor modules'
# scipy imports moved to where an SVD or an unfolding needs them (+6),
# the worker start-up cost in the backend docstrings (+3) and one
# overlong docstring line rewrapped (+1).  Deleted in the same change:
# the worker's resource-tracker import guard (-3; the module exists on
# every supported Python).
#
# The planned fold raised it 15,811 -> 15,870 (+59, over the +40
# budgeted for it).  The broadcast MTTKRP's pre-reduce folds along a
# plan cached per (tensor block, mode) instead of re-deriving padded
# length-class planes every iteration: FoldPlan and fold_plan, the
# position-major permutation and its run table (segsum.py +32), _WIDE
# with its measured per-call times and the groupby import (+6), the
# chunked jagged fold in place of the length classes and the -0.0 mask
# (+4, a shorter module note -2), the weakly keyed plan table and the
# plan argument through block_contribution and the contrib request
# (vectorized.py +11), and the rule that plans on the process backend
# only as many partitions as the publish cache has room for beside the
# blocks' arrays, read off procpool's cap (vectorized.py +8): past the
# cache's cap the cycling modes would evict each other's arrays at
# every task.
# Deleted in the same change: the length classes, the padding and its
# mask.  batch_rows is left as it was: a denser rewrite of it is not a
# reduction.
LOC_CEILING = 15870
loc-check:
	@loc=$$($(MAKE) -s loc); echo "src/repro: $$loc lines (ceiling $(LOC_CEILING))"; \
	test "$$loc" -le $(LOC_CEILING)

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# wall-clock benchmark of the CP-ALS dataflows (perfbench/README.md):
# all four workloads, both passes, ~3.5 min; -quick is the < 30 s smoke
perfbench:
	$(PYTHON) perfbench/run.py

perfbench-quick:
	$(PYTHON) perfbench/run.py --quick

# regenerate every table/figure artifact under benchmarks/results/
figures: bench
	@ls benchmarks/results/

examples:
	@for e in examples/*.py; do echo "== $$e"; $(PYTHON) $$e || exit 1; done

clean:
	rm -rf benchmarks/results .repro-datasets .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
