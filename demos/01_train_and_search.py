"""Train team vectors on a synthetic league and search for similar teams.

The league has two tiers: eight strong clubs and eight weak ones.  Strong
clubs mostly beat weak clubs, while matches inside a tier are close and
often drawn.  After training, a club's nearest neighbours by winner
distance should come from its own tier, and the average within-tier
distance should sit below the cross-tier one.

Run:  python demos/01_train_and_search.py
"""

import io
import json

import numpy as np

from steve import (
    TrainConfig,
    dataset_summary,
    ingest_csv,
    load_model,
    most_similar,
    save_model,
    to_quads,
    train,
    winner_distance,
)

STRONG = ["Ajax", "Feyenoord", "PSV", "Utrecht", "Twente", "AZ", "Vitesse", "Heerenveen"]
WEAK = ["Volendam", "Emmen", "Cambuur", "Helmond", "Dordrecht", "Telstar", "Almere", "Heracles"]


def synth_league_csv(seed=0, seasons=3, rounds=2):
    """Goals are Poisson draws whose rate depends on the strength gap."""
    rng = np.random.default_rng(seed)
    names = STRONG + WEAK
    strength = {n: (1.2 if n in STRONG else -1.2) for n in names}
    lines = ["season_label,competition,home,away,home_goals,away_goals"]
    for s in range(seasons):
        label = f"{2016 + s}/{2017 + s}"
        for _ in range(rounds):
            for home in names:
                for away in names:
                    if home == away:
                        continue
                    gap = strength[home] - strength[away]
                    hg = rng.poisson(max(0.2, 1.3 + 0.9 * gap))
                    ag = rng.poisson(max(0.2, 1.3 - 0.9 * gap))
                    lines.append(f"{label},NationalLeague,{home},{away},{hg},{ag}")
    return "\n".join(lines) + "\n"


def main():
    registry, matches = ingest_csv(io.StringIO(synth_league_csv()))
    dataset = to_quads(matches, registry)
    print("dataset:", json.dumps(dataset_summary(dataset)))

    cfg = TrainConfig(delta=8, batch_size=32, learning_rate=0.002, epochs=30, seed=1)
    model = train(dataset, cfg,
                  progress=lambda e, l: e % 10 == 0 and print(f"  epoch {e}: mean loss {l:.4f}"))

    print("\nnearest neighbours by winner distance:")
    for name in ("Ajax", "Volendam"):
        team = registry.id_of(name)
        neighbours = ", ".join(
            f"{registry.name_of(t)} ({d:.3f})" for t, d in most_similar(model, team, 3)
        )
        print(f"  {name:<10} -> {neighbours}")

    own_tier = 0
    for name in STRONG + WEAK:
        tier = STRONG if name in STRONG else WEAK
        nearest, _ = most_similar(model, registry.id_of(name), 1)[0]
        own_tier += registry.name_of(nearest) in tier
    print(f"\n{own_tier}/16 clubs have their nearest neighbour inside their own tier")

    within, cross = [], []
    names = STRONG + WEAK
    for i, a in enumerate(names):
        for b in names[i + 1:]:
            dist = winner_distance(model, registry.id_of(a), registry.id_of(b))
            same_tier = (a in STRONG) == (b in STRONG)
            (within if same_tier else cross).append(dist)
    print(f"mean within-tier distance {np.mean(within):.4f} vs cross-tier {np.mean(cross):.4f}")

    save_model(model, "demo_model.json", train_config=cfg)
    reloaded = load_model("demo_model.json")
    identical = np.array_equal(reloaded.phi, model.phi) and np.array_equal(reloaded.psi, model.psi)
    print(f"\nsaved demo_model.json; reload is bit-identical: {identical}")


if __name__ == "__main__":
    main()
