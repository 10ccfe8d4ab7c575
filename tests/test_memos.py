"""The package's memo rule: command outputs are memoized only in ``cli``;
below it a memo is fixed data or keyed on its inputs, and only the two keyed
on open floats keep a bound.  ``fresh_memos`` drops them all."""

from __future__ import annotations

from pingpong_eve import attacks, cli
from pingpong_eve.attacks import attack_profile, control_outcomes, forward_images
from pingpong_eve.information import conditionals, exact_joint

from conftest import package_memos

# Every memo of the package with its bound; None is unbounded.
MEMOS = {
    "attacks.attack_profile": None,
    "attacks.control_outcomes": None,
    "cli._analysis": None,
    "cli._census": None,
    "cli.build_parser": None,
    "conventions._batch_tables": None,
    "conventions._collision": None,
    "conventions.enumerate_conventions": None,
    "engine.controlled_flip_permutation": None,
    "engine.router_maps": None,
    "information._conditionals": None,
    "information._exact_joint": 64,
    "protocol._tables": 16,
}


def test_memo_inventory(fresh_memos, capsys):
    memos = package_memos()
    assert {name: memo.cache_info().maxsize for name, memo in memos.items()} == MEMOS
    for argv in (["verify"], ["analyze"], ["solve-conventions"], ["simulate", "--rounds", "10"]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert all(memo.cache_info().currsize for memo in memos.values())
    fresh_memos()
    assert {name: memo.cache_info().currsize for name, memo in memos.items()} == dict.fromkeys(
        MEMOS, 0
    )


def test_a_patched_attack_reads_no_stale_memo(fresh_memos, monkeypatch, capsys):
    """With every memo keyed on the attack's name warm, patching its images
    and clearing through fresh_memos reads the patched attack everywhere."""
    assert control_outcomes("improved")[:2] == (0.25, 0.0)
    assert attack_profile("improved").loss == 0.25
    conditionals("improved")
    exact_joint("plain", 0.5, "improved")
    cli._analysis("improved")
    monkeypatch.setitem(attacks._IMAGES, "improved", forward_images("wojcik"))
    fresh_memos()
    assert control_outcomes("improved")[:2] == (0.25, 0.25)
    assert attack_profile("improved").loss == 0.5
    assert cli.main(["analyze", "--scheme", "improved"]) == 0
    assert "full-attack domain up to eta=0.5)" in capsys.readouterr().out
