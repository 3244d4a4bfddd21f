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
LOC_CEILING = 16180
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
