"""Content-addressed result cache: canonical digests and storage.

The digest must be invariant to presentation (taxon order, site order,
duplicated sites) and sensitive to content (a sequence edit that
introduces a new pattern column, any model/seed change) — and must
ignore execution-only spec fields that the cluster's determinism
contract makes invisible in the result.
"""

import json

import pytest

from repro.cluster import JobSpec
from repro.phylo import Alignment
from repro.serve import ResultCache, canonical_alignment_key, job_digest

#: Four taxa, eight sites, with columns 0 and 4 identical (a built-in
#: duplicate) and seven distinct pattern columns overall.
SEQS = {
    "t1": "ACGTAATG",
    "t2": "ACGTACTC",
    "t3": "AGGTAAAG",
    "t4": "CGGACCAC",
}

SPEC = JobSpec(n_inferences=1, n_bootstraps=10, seed=42)


def digest_of(seqs, spec=SPEC):
    return job_digest(Alignment.from_sequences(seqs).compress(), spec)


class TestCanonicalDigest:
    def test_taxon_order_is_presentation(self):
        reordered = {name: SEQS[name] for name in ("t3", "t1", "t4", "t2")}
        assert digest_of(reordered) == digest_of(SEQS)

    def test_site_order_is_presentation(self):
        # Reverse every sequence: same column multiset, new site order.
        reversed_sites = {name: seq[::-1] for name, seq in SEQS.items()}
        assert digest_of(reversed_sites) == digest_of(SEQS)

    def test_duplicated_sites_collapse(self):
        # Append a copy of site 1 to every taxon: the distinct pattern
        # set is unchanged, so the submission hits the same entry.
        duplicated = {name: seq + seq[1] for name, seq in SEQS.items()}
        assert digest_of(duplicated) == digest_of(SEQS)

    def test_taxon_order_and_duplicates_together(self):
        mangled = {name: SEQS[name] + SEQS[name][:3]
                   for name in ("t4", "t2", "t3", "t1")}
        assert digest_of(mangled) == digest_of(SEQS)

    def test_one_character_edit_misses(self):
        # t1's site 2 G->T creates the column TGGG, which is not among
        # the original patterns: the digest must change.
        edited = dict(SEQS)
        edited["t1"] = "ACTTAATG"
        assert digest_of(edited) != digest_of(SEQS)

    def test_renamed_taxon_misses(self):
        renamed = dict(SEQS)
        renamed["t9"] = renamed.pop("t1")
        assert digest_of(renamed) != digest_of(SEQS)

    def test_model_and_seed_are_content(self):
        import dataclasses

        assert digest_of(SEQS, dataclasses.replace(SPEC, seed=43)) \
            != digest_of(SEQS)
        assert digest_of(SEQS, dataclasses.replace(SPEC, n_bootstraps=20)) \
            != digest_of(SEQS)
        assert digest_of(SEQS, dataclasses.replace(SPEC, model_name="JC69")) \
            != digest_of(SEQS)

    def test_execution_fields_are_not_content(self):
        import dataclasses

        moved = dataclasses.replace(SPEC, alignment_path="/elsewhere.fa",
                                    batch_size=8)
        assert digest_of(SEQS, moved) == digest_of(SEQS)

    def test_key_is_stable_bytes(self):
        patterns = Alignment.from_sequences(SEQS).compress()
        assert canonical_alignment_key(patterns) == \
            canonical_alignment_key(patterns)
        # 4 taxa, 7 distinct patterns (the duplicate column collapsed).
        assert canonical_alignment_key(patterns).startswith(b"4:7:")


    def test_digests_are_pinned_literals(self):
        """The digest is an on-disk address (cache files, job ids): a
        change to pattern order or key layout must show up here, not as
        a silently cold cache.  Four taxa, and eleven — past the eight
        that fit one packed sort word of ``unique_columns``."""
        assert digest_of(SEQS) == ("c12765ce9d59f453cee4053161f18991"
                                   "c2244b02aafabae3f9787ea2c9647119")
        wide = {f"w{i:02d}": "".join("ACGT"[(i * j + j // 3) % 4]
                                     for j in range(24))
                for i in range(11)}
        assert digest_of(wide) == ("95247178a00d72051d2e783f7a9aad88"
                                   "cfc2f8a83e6eeecb8d254824e65d89da")


class TestResultCache:
    def test_put_get_roundtrip_and_counters(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        assert cache.get("d" * 64) is None
        payload = {"best_newick": "(a,b);", "best_log_likelihood": -1.5}
        cache.put("d" * 64, payload)
        assert cache.get("d" * 64) == payload
        assert cache.counters() == {"cache_hits": 1, "cache_misses": 1}

    def test_corrupt_entry_is_a_miss_not_an_error(self, tmp_path):
        cache = ResultCache(str(tmp_path))
        cache.put("e" * 64, {"ok": True})
        with open(cache.path("e" * 64), "w") as fh:
            fh.write('{"torn": ')
        assert cache.get("e" * 64) is None
        # The recompute path simply overwrites the torn entry.
        cache.put("e" * 64, {"ok": True})
        assert cache.get("e" * 64) == {"ok": True}
