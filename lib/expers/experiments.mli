(** Drivers reproducing every table and figure of the paper's evaluation
    (§7), plus two ablations for the extensions in DESIGN.md §6.

    Each driver returns text tables whose rows are the series the paper
    plots; {!registry} names every experiment's run, which prints the
    tables and archives CSVs and charts. Absolute runtimes
    will differ from the paper's Iridis-4 numbers; the shapes (orderings,
    crossovers, trends) are what the reproduction tracks — see
    EXPERIMENTS.md. *)

type dataset1 = D1a | D1b | D1c

val fig5_6 : ?charts_dir:string -> Profile.t -> dataset1 -> Table.t * Table.t
(** Test-only: the end-to-end experiments test checks the tables'
    shape.

    Figures 5x and 6x for x = a/b/c: |N| sweep → (runtime table,
    utility table). *)

val table3 : Profile.t -> Table.t
(** Test-only: the end-to-end experiments test checks the tables'
    shape.

    RemoveMinMC vs BruteForce utility on dataset 1a, |N| = 1..10, run
    on identical instances. *)

val fig9 : ?charts_dir:string -> Profile.t -> Table.t * Table.t
(** Test-only: the end-to-end experiments test checks the tables'
    shape.

    Graph size vs (runtime, utility) on dataset 3. *)

val registry : (string * (results_dir:string -> Profile.t -> unit)) list
(** Every experiment by its command-line name, in paper order: fig5a,
    fig5b, fig5c (each sweep also writes fig6a/b/c), table3, fig7,
    fig8, fig9 (time and utility), then the ablations ablation-bnb
    (BruteForce vs branch-and-bound: candidates, runtime, identical
    optima asserted), ablation-minmc (the five multicut back-ends
    inside RemoveMinMC) and ablation-weights (the paper-literal
    reachability cut weight vs the path-count marginal-loss weight,
    DESIGN.md §2.1a). A run prints its tables and writes their CSVs
    and SVG charts under [results_dir]. *)

val run_all : ?results_dir:string -> Profile.t -> unit
(** Print the profile, then run every {!registry} entry under
    [results_dir] (default ["results"]). *)
