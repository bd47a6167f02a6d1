"""Final coverage batch: lighter-tested corners across the layers."""

import pathlib

import numpy as np
import pytest

from repro.cell import render_timeline
from repro.harness import get_trace
from repro.phylo import (
    AA,
    Alignment,
    GammaRates,
    PoissonAA,
    Tree,
    ascii_tree,
    synthetic_dataset,
)
from repro.port import PortExecutor, TaskCost, paperdata as P, stage


@pytest.fixture(scope="module")
def executor():
    return PortExecutor(get_trace("quick"), devs_batches_per_task=16)


class TestExecutorProjections:
    def test_single_precision_projection_structure(self, executor):
        data = executor.single_precision_projection(bootstraps=(1, 8))
        assert data["bootstraps"] == (1, 8)
        assert len(data["cell_sp"]) == 2
        assert data["cell_sp"][0] < data["cell_dp"][0]

    def test_dual_cell_projection_structure(self, executor):
        data = executor.dual_cell_projection(bootstraps=(1, 16))
        one, two = data[16]
        assert two == pytest.approx(one / 2)
        assert data[1][0] == data[1][1]

    def test_table_lookup_covers_paper_cells(self, executor):
        for name in P.TABLES:
            cells = executor.table(name)
            assert set(cells) == set(P.TABLES[name])
            assert all(v > 0 for v in cells.values())

    def test_table8_keys(self, executor):
        assert set(executor.table8()) == set(P.TABLE8)


class TestTaskCost:
    def test_total_is_sum(self, executor):
        cost = executor.model.task_cost(stage("table7"), workers=1)
        assert cost.total_s == pytest.approx(
            cost.ppe_s + cost.spe_s + cost.comm_s
        )

    def test_ppe_only_has_no_spe_time(self, executor):
        cost = executor.model.task_cost(stage("table1a"), workers=1)
        assert cost.spe_s == 0.0
        assert cost.comm_s == 0.0
        assert cost.offloads == 0

    def test_offload_all_reduces_offload_count(self, executor):
        only_nv = executor.model.task_cost(stage("table6"), workers=1)
        all_three = executor.model.task_cost(stage("table7"), workers=1)
        assert all_three.offloads < only_nv.offloads


class TestDrawingVariants:
    def test_ascii_tree_protein(self):
        aln = Alignment.from_sequences(
            {"pA": "ACDEF", "pB": "ACDEG", "pC": "ACDEH", "pD": "ACDEI"}, AA
        )
        pats = aln.compress()
        tree = Tree.from_tip_names(pats.taxa, np.random.default_rng(0))
        art = ascii_tree(tree)
        for name in pats.taxa:
            assert name in art

    def test_timeline_for_llp_run(self, executor):
        result = executor.llp_devs(2, spes_per_task=4)
        text = render_timeline(result.chip, width=30)
        assert "spe0" in text and "spe4" in text


class TestAlignmentIO:
    def test_pathlike_source(self, tmp_path):
        aln = synthetic_dataset(n_taxa=4, n_sites=40, seed=2)
        path = tmp_path / "aln.fasta"
        path.write_text(aln.to_fasta())
        again = Alignment.from_fasta(pathlib.Path(path))
        assert again.n_taxa == 4

    def test_text_source_with_newlines(self):
        text = ">a\nACGT\n>b\nTGCA\n>c\nACGT\n"
        aln = Alignment.from_fasta(text)
        assert aln.n_taxa == 3


class TestSimMPIEdges:
    def test_more_workers_than_tasks(self):
        from repro.cell import Simulator, Timeout
        from repro.sched import CellTask, MasterWorker

        sim = Simulator()
        tasks = [
            CellTask(0, spe_s=1.0, ppe_s=0.0, comm_s=0.0, offloads=1,
                     n_batches=1)
        ]
        executed = []

        def execute(worker, task):
            executed.append(worker)
            yield Timeout(task.spe_s)

        driver = MasterWorker(sim, tasks, n_workers=5, execute=execute)
        makespan = driver.run()
        assert len(executed) == 1
        assert makespan >= 1.0
        sim.assert_quiescent()

    def test_zero_tasks_terminates(self):
        from repro.cell import Simulator, Timeout
        from repro.sched import MasterWorker

        sim = Simulator()

        def execute(worker, task):  # pragma: no cover - never called
            yield Timeout(1.0)

        driver = MasterWorker(sim, [], n_workers=3, execute=execute)
        driver.run()
        assert driver.completed == []


class TestModelEdges:
    def test_poisson_eigenvalues_structure(self):
        eigs = np.sort(PoissonAA().eigenvalues)
        assert abs(eigs[-1]) < 1e-9
        # The Poisson 20-state model has a 19-fold degenerate eigenvalue.
        assert np.allclose(eigs[:-1], eigs[0], atol=1e-9)

    def test_gamma_rates_name(self):
        assert GammaRates(0.5, 4).name.startswith("GAMMA")
