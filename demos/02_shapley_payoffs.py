"""Decompose system utility into per-component payoffs with the Shapley value.

Shows the coalition values of one joint action, its Shapley allocation,
efficiency (the shares add up to the full coalition's gain over the
all-baseline outcome), and the classic glove game through `shapley_values`.
"""

from pathlib import Path

from bayesadapt import (
    CharacteristicContext,
    coalition_value,
    parse_scenario_file,
    shapley_allocation,
    shapley_values,
)

SCENARIO = Path(__file__).resolve().parents[1] / "scenarios" / "lb3.scn"


def main():
    model = parse_scenario_file(SCENARIO).model

    # Re-route the balancer to s2 while both servers keep serving.
    action = {"lb": "to_s2", "s1": "serve", "s2": "serve"}
    ctx = CharacteristicContext(model, action, model.component_ids)

    print("coalition values (members play the action, the rest stay at baseline):")
    for coalition in ([], ["lb"], ["s2"], ["lb", "s2"], ["lb", "s1", "s2"]):
        name = "{" + ", ".join(coalition) + "}"
        print(f"  v({name}) = {coalition_value(ctx, coalition):g}")

    shares = shapley_allocation(ctx)
    print("\nallocation:", shares)
    print("`lb` absorbs the full -2 swing of rerouting; the servers are unaffected.")
    gain = coalition_value(ctx, ctx.participants) - coalition_value(ctx, [])
    print(f"efficiency: the shares sum to {sum(shares.values()):g} = v(N) - v({{}}) = {gain:g}")

    # A coalition game that is not derived from a system model at all.
    def glove(coalition):
        return 1.0 if "L" in coalition and ("R1" in coalition or "R2" in coalition) else 0.0

    print("\nglove game (L pairs with either R):")
    print(" ", shapley_values(["L", "R1", "R2"], glove))


if __name__ == "__main__":
    main()
