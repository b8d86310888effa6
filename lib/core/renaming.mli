(** One-shot wait-free renaming for hybrid-scheduled uniprocessors, from
    reads and writes only.

    Sec. 5 of the paper notes that its multiprocessor consensus extends
    to dynamic priorities given a renaming object, and that reads/writes
    being universal on a hybrid uniprocessor makes such an object
    implementable. This is the direct construction: name slot [i] is a
    Fig. 3 consensus object deciding its owner; a process claims slots in
    increasing order until it wins one. A process loses a slot only if
    another process's claim interleaves with its own — on a uniprocessor
    that requires a preemption — so with the Theorem 1 quantum each
    acquisition costs O(1 + preemptions suffered) slots: wait-free.

    Names are dense: the k-th process to linearize its claim gets a name
    at most k, so N processes always fit in the name space [1..N]. *)

type t

val make : string -> t

val acquire : t -> pid:int -> int
(** Returns this process's name, [>= 1]. At most one call per process
    (one-shot renaming; repeated calls would consume fresh names). *)
