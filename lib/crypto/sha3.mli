(** SHA3-256 (FIPS 202, Keccak-f[1600] with the 0x06 domain padding),
    computed in C; a digest allocates only its 32-byte output.  LedgerDB
    uses SHA-3 to scatter clue keys uniformly over the Merkle Patricia
    Trie address space (§IV-B2 of the paper). *)

val digest_string : string -> bytes
