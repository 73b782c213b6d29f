"""Enumerate pure equilibria, select by expected system utility, and export.

Also shows the maximin fallback on a scenario engineered to have no pure
equilibrium (a compromised component playing a mimicry game against its
peer), and the Gambit-format export of the induced normal form.
"""

from pathlib import Path

from bayesadapt import (
    PlayerType,
    analyze_attacks,
    build_game,
    enumerate_pure_bne,
    export_induced_nfg,
    interim_payoff,
    maximin_fallback,
    parse_scenario_file,
    select_equilibrium,
)

ROOT = Path(__file__).resolve().parents[1] / "scenarios"
N, M = PlayerType.NORMAL, PlayerType.MALICIOUS


def show_profile(result):
    return {p: {t.value: a for t, a in st.items()} for p, st in result.profile.items()}


def main():
    script = parse_scenario_file(ROOT / "lb3.scn")
    att = analyze_attacks(script.timeline, script.kb, script.model)
    game = build_game(script.model, att)

    results = enumerate_pure_bne(game)
    print(f"lb3 under attack: {len(results)} pure equilibria")
    for r in results:
        print(f"  {show_profile(r)}  E[utility]={r.expected_system_utility:g}")
    best = select_equilibrium(results)
    print("selected:", show_profile(best))

    stay = {"lb": {N: "to_s1"}, "s1": {N: "serve", M: "drop"}, "s2": {N: "serve"}}
    move = {"lb": {N: "to_s2"}, "s1": {N: "serve", M: "drop"}, "s2": {N: "serve"}}
    print("\nwhy lb reroutes (interim expected payoffs):")
    print("  keep routing to s1:", interim_payoff(game, "lb", N, stay))
    print("  reroute to s2:     ", interim_payoff(game, "lb", N, move))

    pennies = parse_scenario_file(ROOT / "pennies.scn")
    p_att = analyze_attacks(pennies.timeline, pennies.kb, pennies.model)
    p_game = build_game(pennies.model, p_att)
    print("\nmimicry scenario equilibria:", enumerate_pure_bne(p_game))
    fallback = maximin_fallback(p_game)
    print("maximin fallback:", show_profile(fallback))
    print("guaranteed values:", {f"{p}/{t.value}": v for (p, t), v in fallback.interim.items()})

    print("\ninduced normal form (Gambit payoff format):")
    print(export_induced_nfg(game, "lb3"), end="")


if __name__ == "__main__":
    main()
