"""Tests for the command-line interface (repro.phylo.cli)."""

import pytest

from repro.phylo import Alignment, Tree, synthetic_dataset
from repro.phylo.cli import build_parser, main


@pytest.fixture(scope="module")
def fasta_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.fasta"
    aln = synthetic_dataset(n_taxa=6, n_sites=200, seed=1)
    path.write_text(aln.to_fasta())
    return str(path)


@pytest.fixture(scope="module")
def phylip_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "data.phy"
    aln = synthetic_dataset(n_taxa=6, n_sites=200, seed=1)
    path.write_text(aln.to_phylip())
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_infer_defaults(self):
        args = build_parser().parse_args(["infer", "-s", "x.phy"])
        assert args.runs == 1
        assert args.bootstraps == 0
        assert args.model == "GTR"

    def test_model_choices_enforced(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["infer", "-s", "x", "-m", "WAG"])


class TestInfer:
    def test_basic_inference(self, fasta_path, capsys):
        code = main(["infer", "-s", fasta_path, "--rounds", "1",
                     "--radius", "1", "--max-radius", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "lnL =" in out
        assert "best tree:" in out

    def test_phylip_input(self, phylip_path, capsys):
        code = main(["infer", "-s", phylip_path, "--rounds", "1",
                     "--radius", "1", "--max-radius", "1"])
        assert code == 0
        assert "6 taxa x 200 DNA sites" in capsys.readouterr().out

    def test_bootstraps_and_output(self, fasta_path, tmp_path, capsys):
        out_file = tmp_path / "best.nwk"
        code = main([
            "infer", "-s", fasta_path, "-n", "2", "-b", "2",
            "--rounds", "1", "--radius", "1", "--max-radius", "1",
            "-o", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bootstraps: 2" in out
        assert "support" in out
        tree = Tree.from_newick(out_file.read_text())
        assert tree.n_tips == 6

    def test_jc_model(self, fasta_path, capsys):
        code = main(["infer", "-s", fasta_path, "-m", "JC69",
                     "--rounds", "1", "--radius", "1", "--max-radius", "1"])
        assert code == 0


class TestSimulate:
    def test_stdout_fasta(self, capsys):
        code = main(["simulate", "--taxa", "5", "--sites", "60"])
        assert code == 0
        out = capsys.readouterr().out
        aln = Alignment.from_fasta(out)
        assert aln.n_taxa == 5
        assert aln.n_sites == 60

    def test_file_phylip(self, tmp_path, capsys):
        path = tmp_path / "sim.phy"
        code = main(["simulate", "--taxa", "4", "--sites", "50",
                     "--format", "phylip", "-o", str(path)])
        assert code == 0
        aln = Alignment.from_phylip(path.read_text())
        assert aln.n_taxa == 4


class TestDistances:
    def test_matrix_output(self, fasta_path, capsys):
        code = main(["distances", "-s", fasta_path, "--method", "jc"])
        assert code == 0
        out = capsys.readouterr().out
        # Header plus one row per taxon.
        assert len(out.strip().splitlines()) == 7

    def test_nj_tree_output(self, fasta_path, capsys):
        code = main(["distances", "-s", fasta_path, "--nj"])
        assert code == 0
        tree = Tree.from_newick(capsys.readouterr().out.strip())
        assert tree.n_tips == 6


class TestCluster:
    def test_cluster_parser_defaults(self):
        args = build_parser().parse_args(
            ["cluster", "run", "-s", "x.phy", "--journal", "j.jsonl"]
        )
        assert args.workers == 2
        assert args.batch_size == 4
        assert args.cluster_command == "run"

    def test_cluster_run_resume_status(self, fasta_path, tmp_path, capsys):
        journal = str(tmp_path / "run.jsonl")
        out_file = str(tmp_path / "best.nwk")
        code = main([
            "cluster", "run", "-s", fasta_path, "-n", "1", "-b", "2",
            "--rounds", "1", "--radius", "1", "--max-radius", "1",
            "--workers", "2", "--batch-size", "2",
            "--journal", journal, "-o", out_file,
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "lnL =" in out
        assert "bootstraps: 2" in out
        tree = Tree.from_newick(open(out_file).read())
        assert tree.n_tips == 6

        code = main(["cluster", "status", "--journal", journal])
        assert code == 0
        status = capsys.readouterr().out
        assert "bootstraps 2/2" in status
        assert "[finished]" in status

        # Resuming a finished run reuses the journal verbatim.
        code = main(["cluster", "resume", "--journal", journal])
        assert code == 0
        assert "best tree:" in capsys.readouterr().out

    def test_cluster_run_refuses_another_jobs_journal(
            self, fasta_path, tmp_path, capsys):
        from repro.cluster import JobSpec, RunJournal

        journal = tmp_path / "run.jsonl"
        with RunJournal(str(journal)) as other:
            other.append("run_started", n_workers=2, spec=JobSpec(
                n_inferences=3, n_bootstraps=0).to_json())
        before = journal.read_bytes()
        code = main(["cluster", "run", "-s", fasta_path,
                     "--journal", str(journal)])
        assert code == 2
        assert "journal holds another job" in capsys.readouterr().err
        assert journal.read_bytes() == before


class TestAlignmentErrors:
    @pytest.mark.parametrize("command", [
        ["infer"], ["distances"], ["cluster", "run", "--journal", "{j}"],
    ], ids=["infer", "distances", "cluster-run"])
    def test_malformed_alignment_exits_2_with_its_code(
            self, command, tmp_path, capsys):
        bad = tmp_path / "bad.fa"
        bad.write_text(">a\nACGT\n>b\nACG\n>c\nACGT\n>d\nACGT\n")
        journal = tmp_path / "run.jsonl"
        argv = [arg.format(j=journal) for arg in command]
        assert main(argv + ["-s", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "length_mismatch" in err
        assert "Traceback" not in err
        assert not journal.exists()


class TestInvalidJob:
    @pytest.mark.parametrize("command, flag, message", [
        (["cluster", "run", "--journal", "{j}"], ["--categories", "0"],
         "cluster run: job field categories=0"),
        (["infer"], ["--alpha", "-1"], "infer: job field alpha=-1.0"),
        (["cluster", "run", "--journal", "{j}"],
         ["--bootstop", "--bootstop-check-every", "0"],
         "cluster run: bootstop check_every must be >= 1"),
        (["cluster", "run", "--journal", "{j}"],
         ["--bootstop", "--bootstop-threshold", "1.5"],
         "cluster run: bootstop threshold must be in (0, 1)"),
    ], ids=["cluster-run-categories", "infer-alpha",
            "cluster-run-bootstop-check-every",
            "cluster-run-bootstop-threshold"])
    def test_bad_job_flag_exits_2_before_any_journal(
            self, command, flag, message, fasta_path, tmp_path, capsys):
        journal = tmp_path / "run.jsonl"
        argv = [arg.format(j=journal) for arg in command]
        assert main(argv + ["-s", fasta_path] + flag) == 2
        captured = capsys.readouterr()
        assert captured.err.count("\n") == 1
        assert captured.err.startswith(message)
        assert "Traceback" not in captured.err
        assert "lnL" not in captured.out
        assert not journal.exists()
