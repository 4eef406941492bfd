"""Small hyperparameter grid search scored by cross-validated primary-task AUC."""

from tabmtl import SearchSpace, SynthConfig, generate, grid_search

dataset, _ = generate(SynthConfig(n_samples=300, n_features=10,
                                  n_informative=4, noise_std=0.5, seed=12))

space = SearchSpace(
    trunk_depths=(1,),
    trunk_widths=(16, 32),
    head_depths=(1,),
    head_widths=(8,),
    lr0_values=(0.005, 0.01),
    weight_decay_values=(0.0,),
    epochs_values=(15,),
    loss_weight_values=(0.5, 1.0),
    primary_task="task_a",
    seed=0,
)
print(f"grid size: {len(space.grid())} configurations")

result = grid_search(dataset, space, k=3)

print(f"\nbest primary-task score (mean AUC): {result.best_score:.4f}")
print("best parameters:")
for key, value in result.best_params.items():
    print(f"  {key}: {value}")

print("\ntrial scores, best first:")
ranked = sorted(result.trials, key=lambda t: -(t["score"] if t["score"] is not None else float("-inf")))
for trial in ranked[:5]:
    print(f"  score {trial['score']:.4f}  trunk {trial['params']['trunk_layers']} "
          f"lr0 {trial['params']['lr0']}  weights {trial['params']['loss_weights']}")
