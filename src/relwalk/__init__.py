"""Top-K relevant walk search for explaining message-passing GNN predictions.

Exact neuron-level search (max-product message passing with search-space
splitting) and approximate node-level search (averaging), both verified
against brute-force enumeration.
"""

__version__ = "0.1.0"

from .ampave import (
    NodeMessageTable,
    amp_ave_topk,
    build_node_message_table,
)
from .datasets import (
    InfectionScenario,
    gen_ba2motif,
    gen_infection,
    motif_edges,
    random_graph,
)
from .empneu import (
    MessageTable,
    TopKResult,
    build_message_table,
    emp_neu_topk,
)
from .graphs import (
    Activations,
    GnnModel,
    Graph,
    LayerSpec,
    ModelFormatError,
    ReadoutSpec,
    ShapeError,
    degree_normalized,
    forward,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_model,
    model_from_dict,
    model_to_dict,
    modified_adjacency,
    predicted_target,
    save_graph,
    save_model,
)
from .metrics import (
    ChainRecall,
    PRPoint,
    SimilarityHistogram,
    column_similarity_histogram,
    edge_recall,
    infection_chain_recall,
    pad_chain,
    precision_recall,
    time_callable,
    walks_to_edge_scores,
)
from .oracle import (
    ScoredWalk,
    dense_tensor,
    exhaustive_topk_neuron,
    exhaustive_topk_node,
    neuron_walk_relevance,
    node_walk_relevance,
)
from .propagation import (
    BudgetError,
    Explainer,
    GammaSchedule,
    ParameterError,
    PropagationStack,
    build_propagation,
    init_output_relevance,
    modified_weight,
    parse_gamma,
)
from .splitting import SplitResult, Splitter, pick, split_topk
from .training import (
    TrainConfig,
    TrainResult,
    TrainingError,
    accuracy,
    init_model,
    train,
)
